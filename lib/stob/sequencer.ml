(* Idealised STOB: node 0 is a correct, never-failing sequencer that
   assigns a global order and reflects every payload to every server.
   Not fault tolerant: it lets unit and property tests of the Chop Chop
   layer (and of applications) run against an oracle ordering service
   with two message delays and no quorum logic. *)

type 'p msg =
  | Forward of 'p          (* any server -> sequencer *)
  | Ordered of int * 'p    (* sequencer -> all: (slot, payload) *)

type ('p, 'w) t = {
  r : ('p, 'p msg, 'w) Replica.t;
  mutable next_slot : int;              (* sequencer only *)
  mutable next_expected : int;          (* delivery cursor *)
  pending : (int, 'p) Hashtbl.t;        (* out-of-order buffer *)
}

let header_bytes = 16

let create r = { r; next_slot = 0; next_expected = 0; pending = Hashtbl.create 64 }

let try_deliver t =
  let rec go () =
    match Hashtbl.find_opt t.pending t.next_expected with
    | Some p ->
      Replica.trace_instant t.r "deliver" ~id:t.next_expected;
      Hashtbl.remove t.pending t.next_expected;
      t.next_expected <- t.next_expected + 1;
      Replica.deliver t.r p;
      go ()
    | None -> ()
  in
  go ()

let order t p =
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  let bytes = header_bytes + t.r.payload_bytes p in
  Replica.gate_serialize t.r ~bytes ~links:(t.r.n - 1) (fun () ->
      Replica.trace_instant t.r "order" ~id:slot;
      Replica.broadcast_all t.r ~bytes (Ordered (slot, p));
      (* Local copy delivered through the same path. *)
      Hashtbl.replace t.pending slot p;
      try_deliver t)

let broadcast t p =
  if not t.r.crashed then
    if t.r.self = 0 then order t p
    else Replica.send t.r ~dst:0 ~bytes:(header_bytes + t.r.payload_bytes p) (Forward p)

let receive t ~src:_ msg =
  if not t.r.crashed then
    match msg with
    | Forward p -> if t.r.self = 0 then order t p
    | Ordered (slot, p) ->
      Hashtbl.replace t.pending slot p;
      try_deliver t

let crash t = t.r.crashed <- true

let recover t = t.r.crashed <- false
(* Slots ordered while down were broadcast once and are gone: the replica
   resumes at its delivery gap and stays a correct prefix (lib/chaos
   treats recovered nodes as degraded for liveness).  A cold restart with
   durable state recovers the gap's payloads by state transfer and then
   calls {!resume_at} to skip the dead slots. *)

let cursor t = t.next_expected

let resume_at t ~cursor =
  if cursor > t.next_expected then begin
    (* Slots below the new cursor were recovered out of band; buffered
       copies must not deliver a second time. *)
    let stale =
      Hashtbl.fold (fun s _ acc -> if s < cursor then s :: acc else acc)
        t.pending []
    in
    List.iter (Hashtbl.remove t.pending) stale;
    t.next_expected <- cursor;
    try_deliver t
  end

let delivered_count t = t.r.delivered
