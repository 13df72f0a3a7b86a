(* PBFT-style total-order broadcast — the BFT-SMaRt stand-in.

   Three-phase commit (pre-prepare / prepare / commit) with leader
   batching, plus a crash-fault view change: on a progress timeout the
   replicas move to the next view, carry over prepared slots, and
   re-submit their own undelivered payloads to the new leader; request
   ids ({!Replica.submit}) keep re-proposals from delivering twice.

   The message pattern and latency profile match what the evaluation
   relies on: O(n²) message complexity, ~2.5 cross-continent one-way
   delays per decision, and batches of up to [batch_max] payloads
   (BFT-SMaRt's baseline configuration uses 400-message batches, §6.1).
   [max_outstanding] caps concurrently running instances; 1 reproduces
   BFT-SMaRt's sequential consensus executions, which bound its
   standalone WAN throughput to roughly batch-size / RTT (§6.3).

   Byzantine leader equivocation is not modelled — the paper treats the
   underlying Atomic Broadcast as a correct, production-ready black box
   (§4); crash faults, which Fig. 11a exercises, are. *)

module Engine = Repro_sim.Engine
module Tally = Repro_sim.Tally
module Trace = Repro_trace.Trace

type 'p item = 'p Replica.item = { rid : Replica.rid; payload : 'p }

type 'p msg =
  | Request of 'p item
  | Pre_prepare of { view : int; seq : int; batch : 'p item list }
  | Prepare of { view : int; seq : int }
  | Commit of { view : int; seq : int }
  | View_change of { new_view : int; prepared : (int * 'p item list) list }
  | New_view of { view : int; proposals : (int * 'p item list) list }

type 'p slot = {
  mutable batch : 'p item list option;
  mutable slot_view : int;
  prepares : Tally.t;
  commits : Tally.t;
  mutable sent_commit : bool;
  mutable committed : bool;
}

type ('p, 'w) t = {
  r : ('p, 'p msg, 'w) Replica.t;
  batch_max : int;
  batch_timeout : float;
  max_outstanding : int;
  mutable view : int;
  mutable next_seq : int;                        (* leader: next proposal slot *)
  mutable next_deliver : int;
  slots : (int, 'p slot) Hashtbl.t;
  mutable queue : 'p item list;                  (* leader: pending requests, reversed *)
  mutable queue_len : int;
  mutable flush_armed : bool;
  queued_rids : (Replica.rid, unit) Hashtbl.t;   (* leader-side dedup *)
  view_changes : (int, Tally.t * (int, 'p item list) Hashtbl.t) Hashtbl.t;
  progress_timer : Engine.timer option ref;
  k_timer : int option; (* Engine kind of pbft timers, built once *)
}

let leader_of_view ~n v = v mod n

let header = 48
let vote_bytes = 96 (* view, seq, signature *)
let view_timeout = 4.

let batch_bytes t batch =
  List.fold_left (fun a it -> a + Replica.item_bytes t.r it) header batch

let create r ~batch_max ~batch_timeout ~max_outstanding =
  { r; batch_max; batch_timeout; max_outstanding;
    view = 0; next_seq = 0; next_deliver = 0;
    slots = Hashtbl.create 128;
    queue = []; queue_len = 0; flush_armed = false;
    queued_rids = Hashtbl.create 1024;
    view_changes = Hashtbl.create 4;
    progress_timer = ref None; k_timer = Some (Engine.kind r.engine "pbft.timer") }

let is_leader t = leader_of_view ~n:t.r.n t.view = t.r.self
let quorum t = (2 * t.r.f) + 1

let slot_of t seq =
  match Hashtbl.find_opt t.slots seq with
  | Some s -> s
  | None ->
    let s = { batch = None; slot_view = -1; prepares = Tally.create t.r.n;
              commits = Tally.create t.r.n; sent_commit = false; committed = false } in
    Hashtbl.add t.slots seq s;
    s

let request t ~dst it =
  Replica.send t.r ~dst ~bytes:(header + Replica.item_bytes t.r it) (Request it)

(* --- progress timer / view change ------------------------------------- *)

let rec arm_progress t =
  if !(t.progress_timer) = None && not t.r.crashed then
    t.progress_timer :=
      Some (Engine.timer ?kind:t.k_timer t.r.engine ~delay:view_timeout (fun () ->
          t.progress_timer := None;
          start_view_change t (t.view + 1)))

and start_view_change t new_view =
  if not t.r.crashed && new_view > t.view then begin
    Trace.Counter.incr
      (Trace.Sink.counter (Engine.trace t.r.engine) ~cat:"stob" ~name:"view_changes");
    Replica.trace_instant t.r "view_change" ~id:new_view;
    t.view <- new_view;
    (* Collect every slot we prepared (2f+1 prepare quorum reached) but not
       yet delivered: the new leader must carry these over. *)
    let prepared = ref [] in
    Hashtbl.iter
      (fun seq slot ->
        if seq >= t.next_deliver && Tally.count slot.prepares >= quorum t then
          match slot.batch with
          | Some b -> prepared := (seq, b) :: !prepared
          | None -> ())
      t.slots;
    let msg = View_change { new_view; prepared = !prepared } in
    let bytes =
      List.fold_left (fun a (_, b) -> a + batch_bytes t b) (header + 64) !prepared
    in
    Replica.broadcast_all t.r ~bytes msg;
    note_view_change t ~src:t.r.self ~new_view ~prepared:!prepared;
    (* Hand our undelivered payloads to the new leader. *)
    let new_leader = leader_of_view ~n:t.r.n new_view in
    if new_leader <> t.r.self then
      List.iter (request t ~dst:new_leader) t.r.own_pending;
    arm_progress t
  end

and note_view_change t ~src ~new_view ~prepared =
  if new_view >= t.view then begin
    let voters, slots_acc =
      match Hashtbl.find_opt t.view_changes new_view with
      | Some entry -> entry
      | None ->
        let entry = (Tally.create t.r.n, Hashtbl.create 16) in
        Hashtbl.add t.view_changes new_view entry;
        entry
    in
    Tally.add voters src;
    List.iter
      (fun (seq, batch) ->
        if not (Hashtbl.mem slots_acc seq) then Hashtbl.add slots_acc seq batch)
      prepared;
    if Tally.count voters >= quorum t
       && leader_of_view ~n:t.r.n new_view = t.r.self && t.view <= new_view
    then begin
      t.view <- new_view;
      install_new_view t new_view slots_acc
    end
  end

and install_new_view t view slots_acc =
  (* Re-propose carried-over slots at their original sequence numbers and
     fill unknown holes with empty batches so delivery can progress. *)
  let max_seq = Hashtbl.fold (fun seq _ acc -> max acc seq) slots_acc (t.next_deliver - 1) in
  let proposals = ref [] in
  for seq = t.next_deliver to max_seq do
    let batch = Option.value (Hashtbl.find_opt slots_acc seq) ~default:[] in
    proposals := (seq, batch) :: !proposals
  done;
  let proposals = List.rev !proposals in
  t.next_seq <- max_seq + 1;
  let bytes =
    List.fold_left (fun a (_, b) -> a + batch_bytes t b) (header + 64) proposals
  in
  Replica.broadcast_all t.r ~bytes (New_view { view; proposals });
  adopt_new_view t view proposals

and adopt_new_view t view proposals =
  t.view <- view;
  Replica.cancel_timer t.progress_timer;
  (* The previous leader's pending queue died with its view: owners
     re-introduce their undelivered payloads. *)
  t.queue <- [];
  t.queue_len <- 0;
  Hashtbl.reset t.queued_rids;
  List.iter (fun (seq, batch) -> handle_pre_prepare t ~view ~seq ~batch) proposals;
  let leader = leader_of_view ~n:t.r.n view in
  List.iter
    (fun it -> if leader = t.r.self then enqueue_leader t it else request t ~dst:leader it)
    t.r.own_pending;
  if t.r.own_pending <> [] then arm_progress t

(* --- normal case -------------------------------------------------------- *)

and flush t =
  t.flush_armed <- false;
  if is_leader t && t.queue_len > 0 && not t.r.crashed
     && t.next_seq - t.next_deliver < t.max_outstanding
  then begin
    (* Take at most one batch worth; the remainder waits for the next
       flush (and, in sequential mode, for the instance slot). *)
    let all = List.rev t.queue in
    let rec split n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> split (n - 1) (x :: acc) rest
    in
    let batch, rest = split t.batch_max [] all in
    t.queue <- List.rev rest;
    t.queue_len <- List.length rest;
    if rest <> [] then arm_flush t;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let view = t.view in
    let bytes = batch_bytes t batch in
    Replica.gate_serialize t.r ~bytes ~links:(t.r.n - 1) (fun () ->
        (* If the view moved on while serializing, receivers (and our own
           [handle_pre_prepare]) discard the stale pre-prepare — the same
           outcome as a proposal lost to a leader crash. *)
        Replica.broadcast_all t.r ~bytes (Pre_prepare { view; seq; batch });
        handle_pre_prepare t ~view ~seq ~batch)
  end

and arm_flush t =
  if not t.flush_armed then begin
    t.flush_armed <- true;
    Engine.schedule ?kind:t.k_timer t.r.engine ~delay:t.batch_timeout (fun () ->
        if t.flush_armed then flush t)
  end

and enqueue_leader t it =
  if not (Hashtbl.mem t.queued_rids it.rid) && not (Replica.is_delivered t.r it.rid)
  then begin
    Hashtbl.add t.queued_rids it.rid ();
    t.queue <- it :: t.queue;
    t.queue_len <- t.queue_len + 1;
    if t.queue_len >= t.batch_max then flush t else arm_flush t
  end

and handle_pre_prepare t ~view ~seq ~batch =
  if view = t.view && seq >= t.next_deliver then begin
    let slot = slot_of t seq in
    if slot.slot_view < view then begin
      slot.batch <- Some batch;
      slot.slot_view <- view;
      Tally.clear slot.prepares;
      Tally.clear slot.commits;
      slot.sent_commit <- false
    end;
    Replica.trace_instant t.r "pre_prepare" ~id:seq;
    (* Everyone, leader included, contributes a prepare vote. *)
    Replica.broadcast_all t.r ~bytes:vote_bytes (Prepare { view; seq });
    note_prepare t ~src:t.r.self ~view ~seq;
    arm_progress t
  end

and note_prepare t ~src ~view ~seq =
  if view = t.view && seq >= t.next_deliver then begin
    let slot = slot_of t seq in
    if slot.slot_view <= view then begin
      Tally.add slot.prepares src;
      if (not slot.sent_commit) && Tally.count slot.prepares >= quorum t
         && slot.batch <> None
      then begin
        slot.sent_commit <- true;
        Replica.trace_instant t.r "prepared" ~id:seq;
        Replica.broadcast_all t.r ~bytes:vote_bytes (Commit { view; seq });
        note_commit t ~src:t.r.self ~seq
      end
    end
  end

and note_commit t ~src ~seq =
  if seq >= t.next_deliver then begin
    let slot = slot_of t seq in
    Tally.add slot.commits src;
    if (not slot.committed) && Tally.count slot.commits >= quorum t
       && slot.batch <> None
    then begin
      slot.committed <- true;
      Replica.trace_instant t.r "committed" ~id:seq;
      try_deliver t
    end
  end

and try_deliver t =
  let rec go () =
    match Hashtbl.find_opt t.slots t.next_deliver with
    | Some { committed = true; batch = Some batch; _ } ->
      Replica.trace_instant t.r "deliver" ~id:t.next_deliver;
      Hashtbl.remove t.slots t.next_deliver;
      t.next_deliver <- t.next_deliver + 1;
      Replica.deliver_once t.r batch;
      go ()
    | Some _ | None -> ()
  in
  go ();
  (* Sequential-instance mode (BFT-SMaRt-style): a pending batch may now
     be allowed through. *)
  if is_leader t && t.queue_len > 0 && not t.flush_armed then flush t;
  Replica.cancel_timer t.progress_timer;
  (* Keep the pressure on if work remains outstanding. *)
  let outstanding =
    t.r.own_pending <> []
    || Hashtbl.fold (fun seq _ acc -> acc || seq >= t.next_deliver) t.slots false
  in
  if outstanding then arm_progress t

let broadcast t p =
  if not t.r.crashed then begin
    let it = Replica.submit t.r p in
    arm_progress t;
    if is_leader t then enqueue_leader t it
    else request t ~dst:(leader_of_view ~n:t.r.n t.view) it
  end

let receive t ~src msg =
  if not t.r.crashed then
    match msg with
    | Request it -> if is_leader t then enqueue_leader t it
    | Pre_prepare { view; seq; batch } ->
      if src = leader_of_view ~n:t.r.n view then handle_pre_prepare t ~view ~seq ~batch
    | Prepare { view; seq } -> note_prepare t ~src ~view ~seq
    | Commit { view = _; seq } -> note_commit t ~src ~seq
    | View_change { new_view; prepared } ->
      note_view_change t ~src ~new_view ~prepared;
      (* A straggler joins an ongoing view change once f+1 peers vouch. *)
      (match Hashtbl.find_opt t.view_changes new_view with
       | Some (voters, _) when Tally.count voters >= t.r.f + 1 && new_view > t.view ->
         start_view_change t new_view
       | _ -> ())
    | New_view { view; proposals } ->
      if view >= t.view && src = leader_of_view ~n:t.r.n view then
        adopt_new_view t view proposals

let crash t =
  t.r.crashed <- true;
  Replica.cancel_timer t.progress_timer

let recover t = t.r.crashed <- false

let cursor t = t.next_deliver

let resume_at t ~cursor =
  if cursor > t.next_deliver then begin
    (* Sequence numbers below the new cursor were recovered out of band
       (lib/store state transfer); drop their slots so they cannot commit
       and deliver a second time.  [note_prepare]/[note_commit] already
       ignore seq < next_deliver, so no further votes resurrect them. *)
    let stale =
      Hashtbl.fold (fun seq _ acc -> if seq < cursor then seq :: acc else acc)
        t.slots []
    in
    List.iter (Hashtbl.remove t.slots) stale;
    t.next_deliver <- cursor;
    try_deliver t
  end

let delivered_count t = t.r.delivered
