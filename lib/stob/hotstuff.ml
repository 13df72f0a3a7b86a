(* Chained HotStuff — the libhotstuff stand-in.

   Rotating leaders, one block per view, quorum certificates formed from
   [n - f] votes, and the 3-chain commit rule; a timeout pacemaker
   advances stuck views with NewView messages carrying the sender's
   highest QC.  A leader proposes as soon as its pool reaches
   [batch_max] but otherwise waits [batch_timeout], so latency
   {e decreases} under load — buffers fill before the timeout fires, the
   artefact the paper observes (§6.3).  Crash faults are modelled;
   Byzantine equivocation of the ordering layer is out of scope (§4.1). *)

module Engine = Repro_sim.Engine
module Tally = Repro_sim.Tally

type 'p item = 'p Replica.item = { rid : Replica.rid; payload : 'p }

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

type ('p, 'w) t = {
  r : ('p, 'p msg, 'w) Replica.t;
  batch_max : int;
  batch_timeout : float;
  blocks : (block_id, 'p block) Hashtbl.t;
  mutable view : int;
  mutable high_qc : qc option;
  mutable last_committed_height : int;
  votes : (block_id, Tally.t) Hashtbl.t;
  new_views : (int, (Tally.t * qc option ref)) Hashtbl.t;
  mutable pool : 'p item list; (* pending requests, reversed *)
  mutable pool_len : int;
  mutable block_counter : int;
  mutable proposed_this_view : bool;
  mutable nv_ready : int; (* view entered via a NewView quorum *)
  proposal_deadline : Engine.timer option ref;
  view_timer : Engine.timer option ref;
  k_timer : int option; (* Engine kind of hotstuff timers, built once *)
}

let header = 48
let qc_bytes = 128
let vote_wire = 96
let new_view_wire = header + qc_bytes
let view_timeout = 2.

let create r ~batch_max ~batch_timeout =
  { r; batch_max; batch_timeout;
    blocks = Hashtbl.create 256;
    view = 0; high_qc = None;
    last_committed_height = -1;
    votes = Hashtbl.create 64; new_views = Hashtbl.create 8;
    pool = []; pool_len = 0; block_counter = 0;
    proposed_this_view = false; nv_ready = -1;
    proposal_deadline = ref None; view_timer = ref None;
    k_timer = Some (Engine.kind r.engine "hotstuff.timer") }

let leader_of ~n v = v mod n
let is_leader t v = leader_of ~n:t.r.n v = t.r.self

let block_bytes t b =
  List.fold_left (fun a it -> a + Replica.item_bytes t.r it) (header + qc_bytes) b.batch

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

(* [b] and its ancestors above [stop_height], oldest first.  A parent's
   height is its QC's view.  [None] when an ancestor above [stop_height]
   is missing — a replica that was down never received it: committing
   past the hole would skip its payloads, so the replica stalls at the
   gap instead and stays a correct prefix. *)
let rec chain_to t b stop_height acc =
  let acc = b :: acc in
  match b.justify with
  | Some qc when qc.qc_view > stop_height ->
    (match Hashtbl.find_opt t.blocks qc.qc_block with
     | Some p -> chain_to t p stop_height acc
     | None -> None)
  | Some _ | None -> Some acc

let deliver_block t b =
  Replica.trace_instant t.r "commit" ~id:b.height;
  t.last_committed_height <- b.height;
  Replica.deliver_once t.r b.batch;
  (* Prune satisfied requests so idle replicas stop driving the pacemaker. *)
  if b.batch <> [] then begin
    t.pool <- List.filter (fun it -> not (Replica.is_delivered t.r it.rid)) t.pool;
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
                  Option.iter (List.iter (deliver_block t))
                    (chain_to t b0 t.last_committed_height [])))))

(* --- pacemaker ----------------------------------------------------------- *)

let rec arm_view_timer t =
  t.view_timer :=
    Some (Engine.timer ?kind:t.k_timer t.r.engine ~delay:view_timeout (fun () ->
        t.view_timer := None;
        on_view_timeout t))

and enter_view t v =
  if v > t.view && not t.r.crashed then begin
    t.view <- v;
    t.proposed_this_view <- false;
    Replica.cancel_timer t.view_timer;
    if has_work t then arm_view_timer t;
    if is_leader t v then maybe_propose t
  end

and on_view_timeout t =
  if (not t.r.crashed) && has_work t then begin
    let next = t.view + 1 in
    let dst = leader_of ~n:t.r.n next in
    if dst <> t.r.self then
      Replica.send t.r ~dst ~bytes:new_view_wire (New_view { view = next; high_qc = t.high_qc });
    note_new_view t ~src:t.r.self ~view:next ~high_qc:t.high_qc;
    enter_view t next
  end

and note_new_view t ~src ~view ~high_qc =
  if view >= t.view && is_leader t view then begin
    let voters, best =
      match Hashtbl.find_opt t.new_views view with
      | Some e -> e
      | None ->
        let e = (Tally.create t.r.n, ref None) in
        Hashtbl.add t.new_views view e;
        e
    in
    Tally.add voters src;
    best := qc_newer high_qc !best;
    if Tally.count voters >= t.r.n - t.r.f then begin
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
  t.pool_len > 0 || t.r.own_pending <> []
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
  if is_leader t t.view && not t.proposed_this_view && not t.r.crashed
     && has_work t && may_extend t
  then
    if t.pool_len >= t.batch_max then propose t
    else if !(t.proposal_deadline) = None then
      t.proposal_deadline :=
        Some (Engine.timer ?kind:t.k_timer t.r.engine ~delay:t.batch_timeout (fun () ->
            t.proposal_deadline := None;
            if is_leader t t.view && not t.proposed_this_view then propose t))

and propose t =
  t.proposed_this_view <- true;
  Replica.cancel_timer t.proposal_deadline;
  let seen = recently_proposed t in
  let batch, rest =
    let all = List.rev t.pool in
    let fresh =
      List.filter
        (fun it ->
          (not (Hashtbl.mem seen it.rid)) && not (Replica.is_delivered t.r it.rid))
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
  let id = (t.r.self, t.block_counter) in
  t.block_counter <- t.block_counter + 1;
  let parent = Option.map (fun qc -> qc.qc_block) t.high_qc in
  let b = { id; height = t.view; parent; justify = t.high_qc; batch } in
  Hashtbl.replace t.blocks id b;
  Replica.trace_instant t.r "propose" ~id:t.view;
  let bytes = block_bytes t b in
  Replica.gate_serialize t.r ~bytes ~links:(t.r.n - 1) (fun () ->
      (* A stale proposal (view advanced while serializing) is discarded
         by [on_proposal]'s height check, like one lost to a crash. *)
      Replica.broadcast_all t.r ~bytes (Proposal b);
      on_proposal t ~src:t.r.self b)

and on_proposal t ~src b =
  if src = leader_of ~n:t.r.n b.height && b.height >= t.view && not t.r.crashed then begin
    Hashtbl.replace t.blocks b.id b;
    (match b.justify with Some qc -> try_commit t qc | None -> ());
    t.high_qc <- qc_newer b.justify t.high_qc;
    (* Vote to the next leader and advance. *)
    let next = b.height + 1 in
    let dst = leader_of ~n:t.r.n next in
    if dst = t.r.self then note_vote t ~src:t.r.self ~view:b.height ~block:b.id
    else Replica.send t.r ~dst ~bytes:vote_wire (Vote { view = b.height; block = b.id });
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
        let v = Tally.create t.r.n in
        Hashtbl.add t.votes block v;
        v
    in
    Tally.add voters src;
    if Tally.count voters = t.r.n - t.r.f then begin
      let qc = { qc_view = view; qc_block = block } in
      Replica.trace_instant t.r "qc" ~id:view;
      t.high_qc <- qc_newer (Some qc) t.high_qc;
      try_commit t qc;
      Replica.broadcast_all t.r ~bytes:(qc_bytes + 16) (Qc_announce qc);
      if view + 1 > t.view then enter_view t (view + 1);
      if t.view = view + 1 then maybe_propose t
    end
  end

and on_qc_announce t qc =
  t.high_qc <- qc_newer (Some qc) t.high_qc;
  try_commit t qc;
  if qc.qc_view + 1 > t.view then enter_view t (qc.qc_view + 1)
  else if is_leader t t.view then maybe_propose t

(* A request joins the pool; whichever replica leads next can propose it.
   The first activity arms the pacemaker. *)
let pool_add t it =
  t.pool <- it :: t.pool;
  t.pool_len <- t.pool_len + 1;
  if is_leader t t.view then maybe_propose t;
  if !(t.view_timer) = None then arm_view_timer t

let broadcast t p =
  if not t.r.crashed then begin
    let it = Replica.submit t.r p in
    Replica.broadcast_all t.r ~bytes:(header + Replica.item_bytes t.r it) (Request it);
    pool_add t it
  end

let receive t ~src msg =
  if not t.r.crashed then
    match msg with
    | Request it -> if not (Replica.is_delivered t.r it.rid) then pool_add t it
    | Proposal b -> on_proposal t ~src b
    | Vote { view; block } -> note_vote t ~src ~view ~block
    | New_view { view; high_qc } -> note_new_view t ~src ~view ~high_qc
    | Qc_announce qc -> on_qc_announce t qc

(* Both timers are emptied, not just cancelled: [maybe_propose] arms a
   proposal deadline only when none is held, so a cancelled one left in
   place would keep a recovered leader from ever proposing again. *)
let crash t =
  t.r.crashed <- true;
  Replica.cancel_timer t.view_timer;
  Replica.cancel_timer t.proposal_deadline

let recover t = t.r.crashed <- false

let cursor t = t.last_committed_height + 1

let resume_at t ~cursor =
  (* Heights below [cursor] were recovered out of band (lib/store state
     transfer): raising the committed height keeps [try_commit] and
     [chain_to] from re-delivering them.  Chopchop-level reference dedup
     covers re-proposals of carried-over payloads at later heights. *)
  if cursor - 1 > t.last_committed_height then
    t.last_committed_height <- cursor - 1

let delivered_count t = t.r.delivered
