module Engine = Repro_sim.Engine
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Tally = Repro_sim.Tally
module Trace = Repro_trace.Trace

type config = {
  n : int;
  batch_bytes : int;
  batch_window : float;
  msg_bytes : int;
  header_bytes : int;
  authenticate : bool;
  workers_per_group : int;
}

let default_config ~n ~msg_bytes ~authenticate =
  { n; batch_bytes = 500_000; batch_window = 0.6; msg_bytes;
    header_bytes = (if authenticate then 80 else 8); authenticate;
    workers_per_group = 1 }

(* Per-message mempool bookkeeping (parsing, hashing, store): the
   engineering overhead that, added to batched Ed25519 verification,
   reproduces the measured sig-variant throughput (§6.1, §6.3).
   Single-core seconds, like Cost: a worker machine spreads this over
   its [Cost.vcpus] lanes. *)
let overhead_per_msg = 8e-6
let sig_extra_per_msg = 51.2e-6

type digest = { d_origin : int; d_bid : int; d_count : int; d_inject : float }

type msg =
  | Batch of { origin : int; bid : int; count : int; inject : float }
  | Batch_ack of { origin : int; bid : int }
  | Header of { round : int; author : int; digests : digest list }
  | Vote of { round : int; author : int; voter : int }
  | Cert of { round : int; author : int; digests : digest list }

type t = {
  engine : Engine.t;
  cpu : Cpu.t;
  cfg : config;
  f : int;
  self : int;
  send : dst:int -> bytes:int -> msg -> unit;
  on_deliver : count:int -> inject_time:float -> unit;
  (* worker state *)
  mutable pending_count : int;
  mutable pending_since : float;
  mutable flush_armed : bool;
  mutable next_bid : int;
  acks : (int, Tally.t * int * float) Hashtbl.t; (* bid -> ackers, count, inject *)
  mutable certified_digests : digest list; (* ready for next header *)
  (* primary / DAG state *)
  mutable round : int;
  mutable header_sent : bool; (* in current round *)
  votes : (int * int, Tally.t) Hashtbl.t; (* (round, author) -> voters *)
  certs : (int * int, digest list) Hashtbl.t; (* (round, author) -> payload *)
  cert_count : (int, Tally.t) Hashtbl.t; (* round -> authors certified *)
  delivered_certs : (int * int, unit) Hashtbl.t;
  mutable committed_round : int;
  mutable round_timer : Engine.timer option;
  mutable delivered : int;
  mutable crashed : bool;
}

let create ~engine ~cpu ~config ~self ~send ~on_deliver () =
  { engine; cpu; cfg = config; f = Tally.quorum_f config.n; self; send; on_deliver;
    pending_count = 0; pending_since = 0.; flush_armed = false; next_bid = 0;
    acks = Hashtbl.create 64; certified_digests = [];
    round = 0; header_sent = false;
    votes = Hashtbl.create 64; certs = Hashtbl.create 256;
    cert_count = Hashtbl.create 64; delivered_certs = Hashtbl.create 256;
    committed_round = -1; round_timer = None;
    delivered = 0; crashed = false }

let quorum t = (2 * t.f) + 1
let delivered t = t.delivered
let crash t = t.crashed <- true

let c_batches t =
  Trace.Sink.counter (Engine.trace t.engine) ~cat:"mempool" ~name:"batches"

let c_certs t =
  Trace.Sink.counter (Engine.trace t.engine) ~cat:"mempool" ~name:"certs"

let w t = float_of_int t.cfg.workers_per_group

let per_msg_cpu t =
  (overhead_per_msg
  +. if t.cfg.authenticate then Cost.ed25519_batch_verify 1 +. sig_extra_per_msg else 0.)
  /. w t

let batch_wire t count =
  (count * (t.cfg.msg_bytes + t.cfg.header_bytes) / t.cfg.workers_per_group) + 48

let broadcast t ~bytes m =
  for dst = 0 to t.cfg.n - 1 do
    if dst <> t.self then t.send ~dst ~bytes m
  done

(* --- worker: batching and dissemination ---------------------------------- *)

let rec flush_worker t =
  t.flush_armed <- false;
  if t.pending_count > 0 && not t.crashed then begin
    let count = t.pending_count and inject = t.pending_since in
    t.pending_count <- 0;
    let bid = t.next_bid in
    t.next_bid <- bid + 1;
    Trace.Counter.incr (c_batches t);
    Cpu.submit t.cpu ~work:(Cpu.parallel (float_of_int count *. per_msg_cpu t)) (fun () ->
        if not t.crashed then begin
          broadcast t ~bytes:(batch_wire t count) (Batch { origin = t.self; bid; count; inject });
          let ackers = Tally.create t.cfg.n in
          Tally.add ackers t.self;
          Hashtbl.replace t.acks bid (ackers, count, inject)
        end)
  end

and note_ack t ~bid ~voter =
  match Hashtbl.find_opt t.acks bid with
  | None -> ()
  | Some (ackers, count, inject) ->
    Tally.add ackers voter;
    if Tally.count ackers >= quorum t then begin
      Hashtbl.remove t.acks bid;
      t.certified_digests <-
        { d_origin = t.self; d_bid = bid; d_count = count; d_inject = inject }
        :: t.certified_digests;
      try_header t
    end

and inject t ~count =
  if not t.crashed then begin
    if t.pending_count = 0 then t.pending_since <- Engine.now t.engine;
    t.pending_count <- t.pending_count + count;
    let bytes = t.pending_count * (t.cfg.msg_bytes + t.cfg.header_bytes) in
    if bytes >= t.cfg.batch_bytes * t.cfg.workers_per_group then flush_worker t
    else if not t.flush_armed then begin
      t.flush_armed <- true;
      Engine.schedule t.engine ~delay:t.cfg.batch_window (fun () ->
          if t.flush_armed then flush_worker t)
    end
  end

(* --- primary: DAG rounds --------------------------------------------------- *)

and has_work t =
  t.certified_digests <> [] || t.pending_count > 0
  || Hashtbl.length t.acks > 0
  ||
  (* uncommitted payload-carrying certs *)
  Hashtbl.fold
    (fun (round, _) digests acc -> acc || (round > t.committed_round && digests <> []))
    t.certs false

and try_header t =
  if (not t.header_sent) && not t.crashed then begin
    let ready =
      t.round = 0
      ||
      match Hashtbl.find_opt t.cert_count (t.round - 1) with
      | Some authors -> Tally.count authors >= quorum t
      | None -> false
    in
    if ready then
      if t.certified_digests <> [] then send_header t
      else if has_work t && t.round_timer = None then
        t.round_timer <-
          Some (Engine.timer t.engine ~delay:t.cfg.batch_window (fun () ->
              t.round_timer <- None;
              if (not t.header_sent) && has_work t && not t.crashed then send_header t))
  end

and send_header t =
  t.header_sent <- true;
  (match t.round_timer with
   | Some tm ->
     Engine.cancel tm;
     t.round_timer <- None
   | None -> ());
  let digests = List.rev t.certified_digests in
  t.certified_digests <- [];
  let bytes = 48 + (List.length digests * 36) + (quorum t * 48) + 96 in
  let header = Header { round = t.round; author = t.self; digests } in
  broadcast t ~bytes header;
  note_vote t ~round:t.round ~author:t.self ~voter:t.self ~digests:(Some digests)

and note_vote t ~round ~author ~voter ~digests =
  if author = t.self && round = t.round then begin
    let key = (round, author) in
    let voters =
      match Hashtbl.find_opt t.votes key with
      | Some v -> v
      | None ->
        let v = Tally.create t.cfg.n in
        Hashtbl.add t.votes key v;
        v
    in
    (match digests with
     | Some ds -> Hashtbl.replace t.certs key ds
     | None -> ());
    Tally.add voters voter;
    if Tally.count voters >= quorum t then begin
      Hashtbl.remove t.votes key;
      let ds = Option.value (Hashtbl.find_opt t.certs key) ~default:[] in
      Trace.Counter.incr (c_certs t);
      let bytes = 48 + (List.length ds * 36) + (quorum t * 8) + 192 in
      broadcast t ~bytes (Cert { round; author; digests = ds });
      note_cert t ~round ~author ~digests:ds
    end
  end

and note_cert t ~round ~author ~digests =
  let key = (round, author) in
  if not (Hashtbl.mem t.certs key) || author <> t.self then
    Hashtbl.replace t.certs key digests;
  let authors =
    match Hashtbl.find_opt t.cert_count round with
    | Some a -> a
    | None ->
      let a = Tally.create t.cfg.n in
      Hashtbl.add t.cert_count round a;
      a
  in
  Tally.add authors author;
  ignore round;
  advance_rounds t

and advance_rounds t =
  let rec loop () =
    match Hashtbl.find_opt t.cert_count t.round with
    | Some authors when Tally.count authors >= quorum t ->
      (* Advance the DAG; committing trails by two rounds (Bullshark's
         one-anchor-per-two-rounds commit latency). *)
      t.round <- t.round + 1;
      t.header_sent <- false;
      (let sink = Engine.trace t.engine in
       if Trace.enabled sink then
         Trace.instant sink ~now:(Engine.now t.engine) ~actor:t.self
           ~cat:"mempool" ~name:"round" ~id:t.round);
      commit_upto t (t.round - 2);
      loop ()
    | Some _ | None -> ()
  in
  loop ();
  try_header t

and commit_upto t upto =
  if upto > t.committed_round then begin
    for r = t.committed_round + 1 to upto do
      (* Deliver every certified vertex of round r in author order —
         the deterministic linearisation of the committed DAG prefix. *)
      for author = 0 to t.cfg.n - 1 do
        let key = (r, author) in
        match Hashtbl.find_opt t.certs key with
        | Some digests when not (Hashtbl.mem t.delivered_certs key) ->
          Hashtbl.add t.delivered_certs key ();
          List.iter
            (fun d ->
              t.delivered <- t.delivered + d.d_count;
              t.on_deliver ~count:d.d_count ~inject_time:d.d_inject)
            digests
        | Some _ | None -> ()
      done
    done;
    t.committed_round <- upto
  end

let receive t ~src msg =
  if not t.crashed then
    match msg with
    | Batch { origin; bid; count; inject = _ } ->
      (* Receiving worker stores (and, in the sig variant, authenticates)
         the batch, then acknowledges it. *)
      Cpu.submit t.cpu ~work:(Cpu.parallel (float_of_int count *. per_msg_cpu t)) (fun () ->
          if not t.crashed then
            t.send ~dst:origin ~bytes:64 (Batch_ack { origin; bid }))
    | Batch_ack { origin; bid } ->
      if origin = t.self then note_ack t ~bid ~voter:src
    | Header { round; author; digests } ->
      Hashtbl.replace t.certs (round, author) digests;
      t.send ~dst:author ~bytes:96 (Vote { round; author; voter = t.self })
    | Vote { round; author; voter } -> note_vote t ~round ~author ~voter ~digests:None
    | Cert { round; author; digests } -> note_cert t ~round ~author ~digests

let inject = inject
