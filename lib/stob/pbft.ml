module Engine = Repro_sim.Engine
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Trace = Repro_trace.Trace

type rid = int * int
(* (origin server, origin-local counter): unique payload identity used for
   deduplication across view-change re-proposals. *)

type 'p item = { rid : rid; payload : 'p }

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
  max_outstanding : int;
  mutable view : int;
  mutable next_seq : int;                        (* leader: next proposal slot *)
  mutable next_deliver : int;
  slots : (int, 'p slot) Hashtbl.t;
  mutable queue : 'p item list;                  (* leader: pending requests, reversed *)
  mutable queue_len : int;
  mutable flush_armed : bool;
  mutable own_pending : 'p item list;            (* our broadcasts not yet delivered *)
  mutable own_counter : int;
  delivered_rids : (rid, unit) Hashtbl.t;
  mutable queued_rids : (rid, unit) Hashtbl.t;   (* leader-side dedup *)
  mutable view_changes : (int, Tally.t * (int, 'p item list) Hashtbl.t) Hashtbl.t;
  mutable progress_timer : Engine.timer option;
  k_timer : int; (* Engine kind attributing pbft timer events *)
  mutable crashed : bool;
  mutable delivered : int;
}

let leader_of_view ~n v = v mod n

let header = 48
let vote_bytes = 96 (* view, seq, signature *)

let item_bytes t it = 16 + t.payload_bytes it.payload

let batch_bytes t batch = List.fold_left (fun a it -> a + item_bytes t it) header batch

let create ~engine ~self ~n ?cpu ~send ~deliver ~payload_bytes ?(batch_max = 400)
    ?(batch_timeout = 0.05) ?(view_timeout = 4.) ?(max_outstanding = max_int) () =
  { engine; self; n; f = Stob_intf.quorum_f n; cpu; send; deliver; payload_bytes;
    batch_max; batch_timeout; view_timeout; max_outstanding;
    view = 0; next_seq = 0; next_deliver = 0;
    slots = Hashtbl.create 128;
    queue = []; queue_len = 0; flush_armed = false;
    own_pending = []; own_counter = 0;
    delivered_rids = Hashtbl.create 1024;
    queued_rids = Hashtbl.create 1024;
    view_changes = Hashtbl.create 4;
    progress_timer = None; k_timer = Engine.kind engine "pbft.timer";
    crashed = false; delivered = 0 }

let is_leader t = leader_of_view ~n:t.n t.view = t.self

let trace_instant t name ~id =
  let sink = Engine.trace t.engine in
  if Trace.enabled sink then
    Trace.instant sink ~now:(Engine.now t.engine) ~actor:t.self ~cat:"stob" ~name ~id

let slot_of t seq =
  match Hashtbl.find_opt t.slots seq with
  | Some s -> s
  | None ->
    let s = { batch = None; slot_view = -1; prepares = Tally.create t.n;
              commits = Tally.create t.n; sent_commit = false; committed = false } in
    Hashtbl.add t.slots seq s;
    s

let broadcast_all t ~bytes msg =
  for dst = 0 to t.n - 1 do
    if dst <> t.self then t.send ~dst ~bytes msg
  done

(* Serialize [bytes] for [links] outgoing copies on the leader's CPU (when
   modelled), then run [k].  Jobs on one CPU complete in submission order,
   so proposal order is preserved on the wire.  Control-plane traffic
   (votes, view changes) stays ungated. *)
let gate_serialize t ~bytes ~links k =
  match t.cpu with
  | None -> k ()
  | Some cpu ->
    Cpu.submit cpu
      ~work:
        (Cpu.parallel
           (float_of_int (bytes * links) *. Cost.serialize_per_byte))
      (fun () -> if not t.crashed then k ())

(* --- progress timer / view change ------------------------------------- *)

let cancel_progress t =
  match t.progress_timer with
  | Some tm ->
    Engine.cancel tm;
    t.progress_timer <- None
  | None -> ()

let rec arm_progress t =
  if t.progress_timer = None && not t.crashed then
    t.progress_timer <-
      Some (Engine.timer ~kind:t.k_timer t.engine ~delay:t.view_timeout (fun () ->
          t.progress_timer <- None;
          start_view_change t (t.view + 1)))

and start_view_change t new_view =
  if not t.crashed && new_view > t.view then begin
    Trace.Counter.incr
      (Trace.Sink.counter (Engine.trace t.engine) ~cat:"stob" ~name:"view_changes");
    trace_instant t "view_change" ~id:new_view;
    t.view <- new_view;
    (* Collect every slot we prepared (2f+1 prepare quorum reached) but not
       yet delivered: the new leader must carry these over. *)
    let prepared = ref [] in
    Hashtbl.iter
      (fun seq slot ->
        if seq >= t.next_deliver && Tally.count slot.prepares >= (2 * t.f) + 1 then
          match slot.batch with
          | Some b -> prepared := (seq, b) :: !prepared
          | None -> ())
      t.slots;
    let msg = View_change { new_view; prepared = !prepared } in
    let bytes =
      List.fold_left (fun a (_, b) -> a + batch_bytes t b) (header + 64) !prepared
    in
    broadcast_all t ~bytes msg;
    note_view_change t ~src:t.self ~new_view ~prepared:!prepared;
    (* Hand our undelivered payloads to the new leader. *)
    let new_leader = leader_of_view ~n:t.n new_view in
    if new_leader <> t.self then
      List.iter
        (fun it -> t.send ~dst:new_leader ~bytes:(header + item_bytes t it) (Request it))
        t.own_pending;
    arm_progress t
  end

and note_view_change t ~src ~new_view ~prepared =
  if new_view >= t.view then begin
    let voters, slots_acc =
      match Hashtbl.find_opt t.view_changes new_view with
      | Some entry -> entry
      | None ->
        let entry = (Tally.create t.n, Hashtbl.create 16) in
        Hashtbl.add t.view_changes new_view entry;
        entry
    in
    Tally.add voters src;
    List.iter
      (fun (seq, batch) ->
        if not (Hashtbl.mem slots_acc seq) then Hashtbl.add slots_acc seq batch)
      prepared;
    if Tally.count voters >= (2 * t.f) + 1
       && leader_of_view ~n:t.n new_view = t.self && t.view <= new_view
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
  broadcast_all t ~bytes (New_view { view; proposals });
  adopt_new_view t view proposals

and adopt_new_view t view proposals =
  t.view <- view;
  cancel_progress t;
  (* The previous leader's pending queue died with its view: owners
     re-introduce their undelivered payloads. *)
  t.queue <- [];
  t.queue_len <- 0;
  Hashtbl.reset t.queued_rids;
  List.iter (fun (seq, batch) -> handle_pre_prepare t ~view ~seq ~batch) proposals;
  let leader = leader_of_view ~n:t.n view in
  List.iter
    (fun it ->
      if leader = t.self then enqueue_leader t it
      else t.send ~dst:leader ~bytes:(header + item_bytes t it) (Request it))
    t.own_pending;
  if t.own_pending <> [] then arm_progress t

(* --- normal case -------------------------------------------------------- *)

and flush t =
  t.flush_armed <- false;
  if is_leader t && t.queue_len > 0 && not t.crashed
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
    if rest <> [] && not t.flush_armed then begin
      t.flush_armed <- true;
      Engine.schedule ~kind:t.k_timer t.engine ~delay:t.batch_timeout (fun () ->
          if t.flush_armed then flush t)
    end;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let view = t.view in
    let bytes = batch_bytes t batch in
    gate_serialize t ~bytes ~links:(t.n - 1) (fun () ->
        (* If the view moved on while serializing, receivers (and our own
           [handle_pre_prepare]) discard the stale pre-prepare — the same
           outcome as a proposal lost to a leader crash. *)
        broadcast_all t ~bytes (Pre_prepare { view; seq; batch });
        handle_pre_prepare t ~view ~seq ~batch)
  end

and enqueue_leader t it =
  if not (Hashtbl.mem t.queued_rids it.rid) && not (Hashtbl.mem t.delivered_rids it.rid)
  then begin
    Hashtbl.add t.queued_rids it.rid ();
    t.queue <- it :: t.queue;
    t.queue_len <- t.queue_len + 1;
    if t.queue_len >= t.batch_max then flush t
    else if not t.flush_armed then begin
      t.flush_armed <- true;
      Engine.schedule ~kind:t.k_timer t.engine ~delay:t.batch_timeout (fun () -> if t.flush_armed then flush t)
    end
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
    trace_instant t "pre_prepare" ~id:seq;
    (* Everyone, leader included, contributes a prepare vote. *)
    broadcast_all t ~bytes:vote_bytes (Prepare { view; seq });
    note_prepare t ~src:t.self ~view ~seq;
    arm_progress t
  end

and note_prepare t ~src ~view ~seq =
  if view = t.view && seq >= t.next_deliver then begin
    let slot = slot_of t seq in
    if slot.slot_view <= view then begin
      Tally.add slot.prepares src;
      if (not slot.sent_commit) && Tally.count slot.prepares >= (2 * t.f) + 1
         && slot.batch <> None
      then begin
        slot.sent_commit <- true;
        trace_instant t "prepared" ~id:seq;
        broadcast_all t ~bytes:vote_bytes (Commit { view; seq });
        note_commit t ~src:t.self ~view ~seq
      end
    end
  end

and note_commit t ~src ~view:_ ~seq =
  if seq >= t.next_deliver then begin
    let slot = slot_of t seq in
    Tally.add slot.commits src;
    if (not slot.committed) && Tally.count slot.commits >= (2 * t.f) + 1
       && slot.batch <> None
    then begin
      slot.committed <- true;
      trace_instant t "committed" ~id:seq;
      try_deliver t
    end
  end

and try_deliver t =
  let rec go () =
    match Hashtbl.find_opt t.slots t.next_deliver with
    | Some ({ committed = true; batch = Some batch; _ } as _slot) ->
      trace_instant t "deliver" ~id:t.next_deliver;
      Hashtbl.remove t.slots t.next_deliver;
      t.next_deliver <- t.next_deliver + 1;
      List.iter
        (fun it ->
          if not (Hashtbl.mem t.delivered_rids it.rid) then begin
            Hashtbl.add t.delivered_rids it.rid ();
            t.own_pending <- List.filter (fun o -> o.rid <> it.rid) t.own_pending;
            t.delivered <- t.delivered + 1;
            t.deliver it.payload
          end)
        batch;
      go ()
    | Some _ | None -> ()
  in
  go ();
  (* Sequential-instance mode (BFT-SMaRt-style): a pending batch may now
     be allowed through. *)
  if is_leader t && t.queue_len > 0 && not t.flush_armed then flush t;
  cancel_progress t;
  (* Keep the pressure on if work remains outstanding. *)
  let outstanding =
    t.own_pending <> []
    || Hashtbl.fold (fun seq _ acc -> acc || seq >= t.next_deliver) t.slots false
  in
  if outstanding then arm_progress t

let broadcast t p =
  if not t.crashed then begin
    let it = { rid = (t.self, t.own_counter); payload = p } in
    t.own_counter <- t.own_counter + 1;
    t.own_pending <- it :: t.own_pending;
    arm_progress t;
    if is_leader t then enqueue_leader t it
    else
      t.send ~dst:(leader_of_view ~n:t.n t.view) ~bytes:(header + item_bytes t it)
        (Request it)
  end

let receive t ~src msg =
  if not t.crashed then
    match msg with
    | Request it -> if is_leader t then enqueue_leader t it
    | Pre_prepare { view; seq; batch } ->
      if src = leader_of_view ~n:t.n view then handle_pre_prepare t ~view ~seq ~batch
    | Prepare { view; seq } -> note_prepare t ~src ~view ~seq
    | Commit { view; seq } -> note_commit t ~src ~view ~seq
    | View_change { new_view; prepared } ->
      note_view_change t ~src ~new_view ~prepared;
      (* A straggler joins an ongoing view change once f+1 peers vouch. *)
      (match Hashtbl.find_opt t.view_changes new_view with
       | Some (voters, _) when Tally.count voters >= t.f + 1 && new_view > t.view ->
         start_view_change t new_view
       | _ -> ())
    | New_view { view; proposals } ->
      if view >= t.view && src = leader_of_view ~n:t.n view then
        adopt_new_view t view proposals

let crash t =
  t.crashed <- true;
  cancel_progress t

let recover t = t.crashed <- false

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

let delivered_count t = t.delivered
let view t = t.view
