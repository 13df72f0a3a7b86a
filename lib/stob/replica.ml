(* The plumbing every STOB replica shares, written once: the node's
   identity and callbacks, the completion-gated proposal fan-out, trace
   instants, the crash flag, and — for PBFT and HotStuff — the
   origin-unique request identity and the deliver-once loop that keeps
   view-change re-proposals from delivering twice (STOB no-duplication).
   Each underlay builds its protocol state around one [('p, 'm, 'w) t]
   ('m its own messages, 'w the wire type they travel in); {!Stob} is the
   only module that chooses among them. *)

module Engine = Repro_sim.Engine
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Trace = Repro_trace.Trace

type rid = int * int (* (origin server, origin-local counter) *)

type 'p item = { rid : rid; payload : 'p }

type ('p, 'm, 'w) t = {
  engine : Engine.t;
  self : int;
  n : int;
  f : int;
  cpu : Cpu.t option;
  wrap : 'm -> 'w;
  send : dst:int -> bytes:int -> 'w -> unit;
  deliver : 'p -> unit;
  payload_bytes : 'p -> int;
  mutable crashed : bool;
  mutable delivered : int;
  mutable own_counter : int;
  mutable own_pending : 'p item list; (* our broadcasts not yet delivered *)
  delivered_rids : (rid, unit) Hashtbl.t;
}

let create ~engine ~self ~n ?cpu ~wrap ~send ~deliver ~payload_bytes () =
  { engine; self; n; f = Repro_sim.Tally.quorum_f n; cpu; wrap; send; deliver;
    payload_bytes; crashed = false; delivered = 0;
    own_counter = 0; own_pending = []; delivered_rids = Hashtbl.create 1024 }

(* Serialize [bytes] for [links] outgoing copies on the node's CPU (when
   modelled), then run [k] unless the node crashed meanwhile.  Jobs on
   one CPU complete in submission order, so proposal order is preserved
   on the wire.  Control-plane traffic (votes, view changes, QC
   announcements) stays ungated. *)
let gate_serialize r ~bytes ~links k =
  match r.cpu with
  | None -> k ()
  | Some cpu ->
    Cpu.submit cpu
      ~work:
        (Cpu.parallel
           (float_of_int (bytes * links) *. Cost.serialize_per_byte))
      (fun () -> if not r.crashed then k ())

let send r ~dst ~bytes msg = r.send ~dst ~bytes (r.wrap msg)

(* One wire copy shared by every destination. *)
let broadcast_all r ~bytes msg =
  let msg = r.wrap msg in
  for dst = 0 to r.n - 1 do
    if dst <> r.self then r.send ~dst ~bytes msg
  done

let trace_instant r name ~id =
  let sink = Engine.trace r.engine in
  if Trace.enabled sink then
    Trace.instant sink ~now:(Engine.now r.engine) ~actor:r.self ~cat:"stob" ~name ~id

(* Cancel the timer a field holds and empty the field: a cancelled timer
   left in place reads as still pending. *)
let cancel_timer field =
  match !field with
  | Some tm ->
    Engine.cancel tm;
    field := None
  | None -> ()

(* A payload this replica broadcasts, tagged with a fresh request id and
   pending until it delivers. *)
let submit r payload =
  let it = { rid = (r.self, r.own_counter); payload } in
  r.own_counter <- r.own_counter + 1;
  r.own_pending <- it :: r.own_pending;
  it

let item_bytes r it = 16 + r.payload_bytes it.payload

let is_delivered r rid = Hashtbl.mem r.delivered_rids rid

let deliver r p =
  r.delivered <- r.delivered + 1;
  r.deliver p

(* Hand up, in order, every item whose request id has not delivered yet,
   retiring our own pending ones. *)
let deliver_once r items =
  List.iter
    (fun it ->
      if not (is_delivered r it.rid) then begin
        Hashtbl.add r.delivered_rids it.rid ();
        r.own_pending <- List.filter (fun o -> o.rid <> it.rid) r.own_pending;
        deliver r it.payload
      end)
    items
