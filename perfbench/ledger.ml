(* Per-layer dispatch ledger: a write-only observer installed through
   [Engine.set_profiler].  It files every dispatched event under the layer
   owning its kind and accumulates events, handler self wall time and
   minor-heap words per layer, plus a self-time histogram for the server
   and broker layers.  What no handler accounts for is the engine's own
   dispatch cost. *)

module Engine = Repro_sim.Engine

type layer = Server | Broker | Client | Rudp | Store | Workload | Other

let layers = [ Server; Broker; Client; Rudp; Store; Workload; Other ]
let n_layers = List.length layers

let layer_name = function
  | Server -> "server"
  | Broker -> "broker"
  | Client -> "client"
  | Rudp -> "rudp"
  | Store -> "store"
  | Workload -> "workload"
  | Other -> "other"

let index = function
  | Server -> 0
  | Broker -> 1
  | Client -> 2
  | Rudp -> 3
  | Store -> 4
  | Workload -> 5
  | Other -> 6

let inject_kind = "bench.inject"

(* Unlisted kinds fall into [Other], so the layers always sum to the
   whole of handler time. *)
let layer_of_kind = function
  | "cpu.server" | "net.server" | "server.timer" | "pbft.timer"
  | "hotstuff.timer" ->
    Server
  | "cpu.broker" | "net.broker" | "broker.timer" -> Broker
  | "net.client" | "client.timer" -> Client
  | "rudp.retx" -> Rudp
  | "disk.io" -> Store
  | "load.inject" -> Workload
  | k when k = inject_kind -> Workload
  | _ -> Other

(* Log-linear histogram of microsecond durations: 1% wide buckets from
   10 ns up. *)
module Hist = struct
  let per_e = 100.
  let lo = 0.01
  let size = 2600

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make size 0; n = 0 }

  let add t us =
    let b =
      if us <= lo then 0
      else min (size - 1) (int_of_float (log (us /. lo) *. per_e))
    in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1

  let percentile t q =
    if t.n = 0 then 0.
    else begin
      let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
      let b = ref 0 and seen = ref t.counts.(0) in
      while !seen < rank do
        incr b;
        seen := !seen + t.counts.(!b)
      done;
      lo *. exp ((float_of_int !b +. 0.5) /. per_e)
    end
end

type t = {
  engine : Engine.t;
  mutable layer_of : int array; (* kind id -> layer index, -1 unknown *)
  events : int array;
  wall : float array;
  minor : float array;
  server_hist : Hist.t;
  broker_hist : Hist.t;
}

let attach engine =
  let t =
    { engine; layer_of = Array.make 64 (-1);
      events = Array.make n_layers 0;
      wall = Array.make n_layers 0.;
      minor = Array.make n_layers 0.;
      server_hist = Hist.create ();
      broker_hist = Hist.create () }
  in
  let layer kind =
    if kind >= Array.length t.layer_of then begin
      let bigger = Array.make (2 * kind) (-1) in
      Array.blit t.layer_of 0 bigger 0 (Array.length t.layer_of);
      t.layer_of <- bigger
    end;
    let l = t.layer_of.(kind) in
    if l >= 0 then l
    else begin
      let l = index (layer_of_kind (Engine.kind_name engine kind)) in
      t.layer_of.(kind) <- l;
      l
    end
  in
  let record ~kind ~wall ~minor ~dwell:_ ~depth:_ =
    let l = layer kind in
    t.events.(l) <- t.events.(l) + 1;
    t.wall.(l) <- t.wall.(l) +. wall;
    t.minor.(l) <- t.minor.(l) +. minor;
    if l = index Server then Hist.add t.server_hist (wall *. 1e6)
    else if l = index Broker then Hist.add t.broker_hist (wall *. 1e6)
  in
  Engine.set_profiler engine
    (Some { Engine.prof_clock = Repro_prof.Prof.Clock.now; prof_record = record });
  t

let detach t = Engine.set_profiler t.engine None

let events t l = t.events.(index l)
let self_s t l = t.wall.(index l)
let minor_words t l = t.minor.(index l)
let handler_s t = Array.fold_left ( +. ) 0. t.wall

let event_us t l q =
  match l with
  | Server -> Hist.percentile t.server_hist q
  | Broker -> Hist.percentile t.broker_hist q
  | _ -> invalid_arg "Ledger.event_us: server and broker only"
