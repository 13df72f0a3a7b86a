module Engine = Repro_sim.Engine
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Trace = Repro_trace.Trace

type rid = int * int

type 'p item = { rid : rid; payload : 'p }

type block_id = int * int (* (proposer, proposer-local counter) *)

type qc = { qc_view : int; qc_block : block_id }

type 'p block = {
  id : block_id;
  height : int; (* = view that proposed it *)
  parent : block_id option;
  justify : qc option;
  batch : 'p item list;
}

type 'p msg =
  | Request of 'p item
  | Proposal of 'p block
  | Vote of { view : int; block : block_id }
  | New_view of { view : int; high_qc : qc option }
  | Qc_announce of qc
      (* A freshly formed QC, broadcast so replicas that will not see a
         follow-up proposal (a quiescing chain) can still commit. *)

type 'p t = {
  engine : Engine.t;
  self : int;
  n : int;
  f : int;
  cpu : Cpu.t option;
  send : dst:int -> bytes:int -> 'p msg -> unit;
  deliver : 'p -> unit;
  payload_bytes : 'p -> int;
  batch_max : int;
  batch_timeout : float;
  view_timeout : float;
  blocks : (block_id, 'p block) Hashtbl.t;
  mutable view : int;
  mutable high_qc : qc option;
  mutable last_committed : block_id option;
  mutable last_committed_height : int;
  votes : (block_id, Tally.t) Hashtbl.t;
  new_views : (int, (Tally.t * qc option ref)) Hashtbl.t;
  mutable pool : 'p item list; (* pending requests, reversed *)
  mutable pool_len : int;
  mutable own_pending : 'p item list;
  mutable own_counter : int;
  mutable block_counter : int;
  delivered_rids : (rid, unit) Hashtbl.t;
  mutable proposed_this_view : bool;
  mutable nv_ready : int; (* view entered via a NewView quorum *)
  mutable proposal_deadline : Engine.timer option;
  mutable view_timer : Engine.timer option;
  k_timer : int; (* Engine kind attributing hotstuff timer events *)
  mutable crashed : bool;
  mutable delivered : int;
}

let header = 48
let qc_bytes = 128
let vote_wire = 96
let new_view_wire = header + qc_bytes

let create ~engine ~self ~n ?cpu ~send ~deliver ~payload_bytes ?(batch_max = 400)
    ?(batch_timeout = 0.3) ?(view_timeout = 2.) () =
  { engine; self; n; f = Stob_intf.quorum_f n; cpu; send; deliver; payload_bytes;
    batch_max; batch_timeout; view_timeout;
    blocks = Hashtbl.create 256;
    view = 0; high_qc = None;
    last_committed = None; last_committed_height = -1;
    votes = Hashtbl.create 64; new_views = Hashtbl.create 8;
    pool = []; pool_len = 0; own_pending = []; own_counter = 0; block_counter = 0;
    delivered_rids = Hashtbl.create 1024;
    proposed_this_view = false; nv_ready = -1;
    proposal_deadline = None; view_timer = None;
    k_timer = Engine.kind engine "hotstuff.timer";
    crashed = false; delivered = 0 }

let leader_of ~n v = v mod n
let is_leader t v = leader_of ~n:t.n v = t.self

let trace_instant t name ~id =
  let sink = Engine.trace t.engine in
  if Trace.enabled sink then
    Trace.instant sink ~now:(Engine.now t.engine) ~actor:t.self ~cat:"stob" ~name ~id

let item_bytes t it = 16 + t.payload_bytes it.payload

let block_bytes t b =
  List.fold_left (fun a it -> a + item_bytes t it) (header + qc_bytes) b.batch

let broadcast_all t ~bytes msg =
  for dst = 0 to t.n - 1 do
    if dst <> t.self then t.send ~dst ~bytes msg
  done

(* Serialize [bytes] for [links] outgoing copies on the leader's CPU (when
   modelled), then run [k].  Jobs on one CPU complete in submission order,
   so proposal order is preserved on the wire.  Control-plane traffic
   (votes, QC announcements, new-view) stays ungated. *)
let gate_serialize t ~bytes ~links k =
  match t.cpu with
  | None -> k ()
  | Some cpu ->
    Cpu.submit cpu
      ~work:
        (Cpu.parallel
           (float_of_int (bytes * links) *. Cost.serialize_per_byte))
      (fun () -> if not t.crashed then k ())

let qc_newer a b =
  match (a, b) with
  | Some x, Some y -> if x.qc_view > y.qc_view then Some x else Some y
  | Some x, None -> Some x
  | None, y -> y

(* Walk the chain to drop payloads already proposed by recent ancestors,
   limiting delivery-time duplicates after leader rotation. *)
let recently_proposed t =
  let seen = Hashtbl.create 64 in
  let rec walk id depth =
    if depth > 0 then
      match Hashtbl.find_opt t.blocks id with
      | Some b ->
        List.iter (fun it -> Hashtbl.replace seen it.rid ()) b.batch;
        (match b.parent with Some p -> walk p (depth - 1) | None -> ())
      | None -> ()
  in
  (match t.high_qc with Some qc -> walk qc.qc_block 8 | None -> ());
  seen

(* --- commit & delivery -------------------------------------------------- *)

let rec chain_to t id stop_height acc =
  match Hashtbl.find_opt t.blocks id with
  | Some b when b.height > stop_height ->
    let acc = b :: acc in
    (match b.parent with
     | Some p -> chain_to t p stop_height acc
     | None -> acc)
  | Some _ | None -> acc

let deliver_block t b =
  trace_instant t "commit" ~id:b.height;
  t.last_committed <- Some b.id;
  t.last_committed_height <- b.height;
  List.iter
    (fun it ->
      if not (Hashtbl.mem t.delivered_rids it.rid) then begin
        Hashtbl.add t.delivered_rids it.rid ();
        t.own_pending <- List.filter (fun o -> o.rid <> it.rid) t.own_pending;
        t.delivered <- t.delivered + 1;
        t.deliver it.payload
      end)
    b.batch;
  (* Prune satisfied requests so idle replicas stop driving the pacemaker. *)
  if b.batch <> [] then begin
    t.pool <- List.filter (fun it -> not (Hashtbl.mem t.delivered_rids it.rid)) t.pool;
    t.pool_len <- List.length t.pool
  end

(* 3-chain rule over parent links: a QC for b2 whose justify chain is
   b2 <- b1 <- b0 commits b0 and its ancestors.  The textbook rule also
   demands consecutive view numbers; under crash faults at most one QC can
   form per height (replicas vote once per height), so parent linkage
   alone is safe — and it preserves liveness under round-robin leaders
   when a crashed replica breaks every run of three consecutive views. *)
let try_commit t qc =
  match Hashtbl.find_opt t.blocks qc.qc_block with
  | None -> ()
  | Some b2 ->
    (match b2.justify with
     | None -> ()
     | Some qc1 ->
       (match Hashtbl.find_opt t.blocks qc1.qc_block with
        | None -> ()
        | Some b1 ->
          (match b1.justify with
           | None -> ()
           | Some qc0 ->
             (match Hashtbl.find_opt t.blocks qc0.qc_block with
              | None -> ()
              | Some b0 ->
                if b1.parent = Some b0.id && b2.parent = Some b1.id
                   && b0.height > t.last_committed_height
                then
                  List.iter (deliver_block t)
                    (chain_to t b0.id t.last_committed_height [])))))

(* --- pacemaker ----------------------------------------------------------- *)

let cancel_timer tm =
  match !tm with
  | Some x ->
    Engine.cancel x;
    tm := None
  | None -> ()

let rec enter_view t v =
  if v > t.view && not t.crashed then begin
    t.view <- v;
    t.proposed_this_view <- false;
    let vt = ref t.view_timer in
    cancel_timer vt;
    t.view_timer <- !vt;
    if has_work t then
      t.view_timer <-
        Some (Engine.timer ~kind:t.k_timer t.engine ~delay:t.view_timeout (fun () ->
            t.view_timer <- None;
            on_view_timeout t));
    if is_leader t v then maybe_propose t
  end

and on_view_timeout t =
  if (not t.crashed) && has_work t then begin
    let next = t.view + 1 in
    let dst = leader_of ~n:t.n next in
    if dst <> t.self then
      t.send ~dst ~bytes:new_view_wire (New_view { view = next; high_qc = t.high_qc });
    note_new_view t ~src:t.self ~view:next ~high_qc:t.high_qc;
    enter_view t next
  end

and note_new_view t ~src ~view ~high_qc =
  if view >= t.view && is_leader t view then begin
    let voters, best =
      match Hashtbl.find_opt t.new_views view with
      | Some e -> e
      | None ->
        let e = (Tally.create t.n, ref None) in
        Hashtbl.add t.new_views view e;
        e
    in
    Tally.add voters src;
    best := qc_newer high_qc !best;
    if Tally.count voters >= t.n - t.f then begin
      t.high_qc <- qc_newer !best t.high_qc;
      t.nv_ready <- max t.nv_ready view;
      if view > t.view then enter_view t view;
      if view = t.view then maybe_propose t
    end
  end

(* True while some payload is still waiting in a pool or sits in the
   uncommitted suffix of the chain: leaders then keep proposing (possibly
   empty) blocks so the 3-chain commit rule can fire.  Once the chain is
   quiescent, proposing stops and the simulation can drain. *)
and has_work t =
  t.pool_len > 0 || t.own_pending <> []
  ||
  (let rec walk id depth =
     depth > 0
     &&
     match Hashtbl.find_opt t.blocks id with
     | Some b ->
       (b.height > t.last_committed_height && b.batch <> [])
       || (match b.parent with
           | Some p -> b.height > t.last_committed_height && walk p (depth - 1)
           | None -> false)
     | None -> false
   in
   match t.high_qc with Some qc -> walk qc.qc_block 64 | None -> false)

(* A leader proposes when its pool is full, or after the batching timeout —
   even an empty block, to keep the chain (and the commit rule) moving. *)
(* A leader of view v proposes once it holds the QC of view v-1 (the
   normal chained hand-off) or once a NewView quorum authorised the view
   (after a pacemaker timeout).  Proposing on a stale QC would fork the
   chain and outrun the votes. *)
and may_extend t =
  t.view = 0
  || t.nv_ready >= t.view
  || (match t.high_qc with Some qc -> qc.qc_view >= t.view - 1 | None -> false)

and maybe_propose t =
  if is_leader t t.view && not t.proposed_this_view && not t.crashed
     && has_work t && may_extend t
  then
    if t.pool_len >= t.batch_max then propose t
    else if t.proposal_deadline = None then
      t.proposal_deadline <-
        Some (Engine.timer ~kind:t.k_timer t.engine ~delay:t.batch_timeout (fun () ->
            t.proposal_deadline <- None;
            if is_leader t t.view && not t.proposed_this_view then propose t))

and propose t =
  t.proposed_this_view <- true;
  let pd = ref t.proposal_deadline in
  cancel_timer pd;
  t.proposal_deadline <- !pd;
  let seen = recently_proposed t in
  let batch, rest =
    let all = List.rev t.pool in
    let fresh =
      List.filter
        (fun it ->
          (not (Hashtbl.mem seen it.rid)) && not (Hashtbl.mem t.delivered_rids it.rid))
        all
    in
    let rec take n acc = function
      | [] -> (List.rev acc, [])
      | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    take t.batch_max [] fresh
  in
  t.pool <- List.rev rest;
  t.pool_len <- List.length rest;
  let id = (t.self, t.block_counter) in
  t.block_counter <- t.block_counter + 1;
  let parent = Option.map (fun qc -> qc.qc_block) t.high_qc in
  let b = { id; height = t.view; parent; justify = t.high_qc; batch } in
  Hashtbl.replace t.blocks id b;
  trace_instant t "propose" ~id:t.view;
  let bytes = block_bytes t b in
  gate_serialize t ~bytes ~links:(t.n - 1) (fun () ->
      (* A stale proposal (view advanced while serializing) is discarded
         by [on_proposal]'s height check, like one lost to a crash. *)
      broadcast_all t ~bytes (Proposal b);
      on_proposal t ~src:t.self b)

and on_proposal t ~src b =
  if src = leader_of ~n:t.n b.height && b.height >= t.view && not t.crashed then begin
    Hashtbl.replace t.blocks b.id b;
    (match b.justify with Some qc -> try_commit t qc | None -> ());
    t.high_qc <- qc_newer b.justify t.high_qc;
    (* Vote to the next leader and advance. *)
    let next = b.height + 1 in
    let dst = leader_of ~n:t.n next in
    if dst = t.self then note_vote t ~src:t.self ~view:b.height ~block:b.id
    else t.send ~dst ~bytes:vote_wire (Vote { view = b.height; block = b.id });
    enter_view t next
  end

and note_vote t ~src ~view ~block =
  (* Accept votes even when our view has moved on: the QC still certifies
     the block and may unblock the chain. *)
  if is_leader t (view + 1) then begin
    let voters =
      match Hashtbl.find_opt t.votes block with
      | Some v -> v
      | None ->
        let v = Tally.create t.n in
        Hashtbl.add t.votes block v;
        v
    in
    Tally.add voters src;
    if Tally.count voters = t.n - t.f then begin
      let qc = { qc_view = view; qc_block = block } in
      trace_instant t "qc" ~id:view;
      t.high_qc <- qc_newer (Some qc) t.high_qc;
      try_commit t qc;
      broadcast_all t ~bytes:(qc_bytes + 16) (Qc_announce qc);
      if view + 1 > t.view then enter_view t (view + 1);
      if t.view = view + 1 then maybe_propose t
    end
  end

and on_qc_announce t qc =
  t.high_qc <- qc_newer (Some qc) t.high_qc;
  try_commit t qc;
  if qc.qc_view + 1 > t.view then enter_view t (qc.qc_view + 1)
  else if is_leader t t.view then maybe_propose t

let broadcast t p =
  if not t.crashed then begin
    let it = { rid = (t.self, t.own_counter); payload = p } in
    t.own_counter <- t.own_counter + 1;
    t.own_pending <- it :: t.own_pending;
    (* Hand the request to everyone: whichever replica leads next can
       propose it. *)
    broadcast_all t ~bytes:(header + item_bytes t it) (Request it);
    t.pool <- it :: t.pool;
    t.pool_len <- t.pool_len + 1;
    if is_leader t t.view then maybe_propose t;
    if t.view_timer = None then begin
      (* Bootstrap: arm the pacemaker on first activity. *)
      t.view_timer <-
        Some (Engine.timer ~kind:t.k_timer t.engine ~delay:t.view_timeout (fun () ->
            t.view_timer <- None;
            on_view_timeout t))
    end
  end

let receive t ~src msg =
  if not t.crashed then
    match msg with
    | Request it ->
      if not (Hashtbl.mem t.delivered_rids it.rid) then begin
        t.pool <- it :: t.pool;
        t.pool_len <- t.pool_len + 1;
        if is_leader t t.view then maybe_propose t;
        if t.view_timer = None then
          t.view_timer <-
            Some (Engine.timer ~kind:t.k_timer t.engine ~delay:t.view_timeout (fun () ->
                t.view_timer <- None;
                on_view_timeout t))
      end
    | Proposal b -> on_proposal t ~src b
    | Vote { view; block } -> note_vote t ~src ~view ~block
    | New_view { view; high_qc } -> note_new_view t ~src ~view ~high_qc
    | Qc_announce qc -> on_qc_announce t qc

let crash t =
  t.crashed <- true;
  let vt = ref t.view_timer in
  cancel_timer vt;
  let pd = ref t.proposal_deadline in
  cancel_timer pd

let recover t = t.crashed <- false

let cursor t = t.last_committed_height + 1

let resume_at t ~cursor =
  (* Heights below [cursor] were recovered out of band (lib/store state
     transfer): raising the committed height keeps [try_commit] and
     [chain_to] from re-delivering them.  Chopchop-level reference dedup
     covers re-proposals of carried-over payloads at later heights. *)
  if cursor - 1 > t.last_committed_height then
    t.last_committed_height <- cursor - 1

let delivered_count t = t.delivered
