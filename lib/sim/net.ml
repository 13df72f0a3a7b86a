(* A node's two NIC queues: their rates and the instants they are next
   free.  An all-float record stores its fields unboxed, so advancing a
   queue writes the number in place instead of allocating a box. *)
type nic = {
  ingress_bps : float;
  egress_bps : float;
  mutable out_free : float;
  mutable in_free : float;
}

type 'msg node = {
  region : Region.t;
  row : int; (* [Region.index region * Region.count]: this node as sender *)
  col : int; (* [Region.index region]: this node as receiver *)
  kind : int option;
      (* interned Engine kind attributing this node's events; the option is
         made once, so that scheduling does not allocate it *)
  handler : src:int -> 'msg -> unit;
  nic : nic;
  mutable sent : int;
  mutable received : int;
  mutable connected : bool;
}

type 'msg t = {
  engine : Engine.t;
  loss : float;
  (* Node ids are small dense ints, so the table is an array indexed by
     id; [absent] fills the ids no node was added at. *)
  mutable nodes : 'msg node array;
  absent : 'msg node;
  rng : Rng.t;
  (* Fault-injection state (lib/chaos).  [groups] maps node id -> partition
     group; unlisted nodes implicitly belong to group 0.  The per-link
     tables hold directed (src, dst) overrides; [faults_active] gates the
     lookups so the fault-free hot path costs one load. *)
  mutable groups : (int, int) Hashtbl.t option;
  link_loss : (int * int, float) Hashtbl.t;
  link_delay : (int * int, float) Hashtbl.t;
  mutable faults_active : bool;
  c_msgs : Repro_trace.Trace.Counter.t;
  c_bytes : Repro_trace.Trace.Counter.t;
  c_lost : Repro_trace.Trace.Counter.t;
  c_cut : Repro_trace.Trace.Counter.t;
}

(* c6i.8xlarge NICs are 12.5 Gb/s, but sustained cross-WAN TCP goodput is
   a fraction of that (AWS upload is half the stated bandwidth, §6.4, and
   long-haul streams lose more): the effective rates below are calibrated
   so a server's bulk ingress saturates near 0.6 GB/s — consistent with
   Fig. 9, where the measured server network rate peaks around 0.5 GB/s. *)
let server_default_ingress_bps = 5e9
let server_default_egress_bps = 3.125e9

let create engine ?(loss = 0.) () =
  let sink = Engine.trace engine in
  let absent =
    { region = Region.Paris; row = 0; col = 0; kind = None;
      handler = (fun ~src:_ _ -> ());
      nic = { ingress_bps = 0.; egress_bps = 0.; out_free = 0.; in_free = 0. };
      sent = 0; received = 0; connected = false }
  in
  { engine; loss; nodes = [||]; absent; rng = Rng.split (Engine.rng engine);
    groups = None; link_loss = Hashtbl.create 16; link_delay = Hashtbl.create 16;
    faults_active = false;
    c_msgs = Repro_trace.Trace.Sink.counter sink ~cat:"net" ~name:"msgs";
    c_bytes = Repro_trace.Trace.Sink.counter sink ~cat:"net" ~name:"bytes";
    c_lost = Repro_trace.Trace.Sink.counter sink ~cat:"net" ~name:"lost";
    c_cut = Repro_trace.Trace.Sink.counter sink ~cat:"net" ~name:"cut" }

let add_node t ~id ~region ?(ingress_bps = server_default_ingress_bps)
    ?(egress_bps = server_default_egress_bps) ?kind ~handler () =
  if id < 0 then invalid_arg "Net.add_node: negative id";
  let len = Array.length t.nodes in
  if id < len && t.nodes.(id) != t.absent then
    invalid_arg "Net.add_node: duplicate id";
  if id >= len then begin
    let bigger = Array.make (max (id + 1) (2 * len)) t.absent in
    Array.blit t.nodes 0 bigger 0 len;
    t.nodes <- bigger
  end;
  let kind =
    Some (match kind with Some k -> Engine.kind t.engine k | None -> 0)
  in
  t.nodes.(id) <-
    { region; row = Region.index region * Region.count;
      col = Region.index region; kind; handler;
      nic = { ingress_bps; egress_bps; out_free = 0.; in_free = 0. };
      sent = 0; received = 0; connected = true }

let node t id =
  if id >= 0 && id < Array.length t.nodes && t.nodes.(id) != t.absent then
    t.nodes.(id)
  else invalid_arg (Printf.sprintf "Net: unknown node %d" id)

let reachable t src dst =
  match t.groups with
  | None -> true
  | Some tbl ->
    let g n = Option.value (Hashtbl.find_opt tbl n) ~default:0 in
    g src = g dst

(* A partitioned packet leaves the sender's NIC and dies in the WAN: the
   egress bandwidth is consumed, nothing arrives. *)
let charge_egress_only t s bytes =
  let now = Engine.now t.engine in
  s.sent <- s.sent + bytes;
  let nic = s.nic in
  let out_start = Float.max now nic.out_free in
  nic.out_free <- out_start +. (float_of_int (8 * bytes) /. nic.egress_bps)

let transmit t ~src ~dst ~bytes msg =
  let s = node t src and d = node t dst in
  if s.connected && d.connected then begin
    if t.faults_active && not (reachable t src dst) then begin
      Repro_trace.Trace.Counter.incr t.c_cut;
      charge_egress_only t s bytes
    end
    else begin
      let now = Engine.now t.engine in
      s.sent <- s.sent + bytes;
      Repro_trace.Trace.Counter.incr t.c_msgs;
      Repro_trace.Trace.Counter.add t.c_bytes bytes;
      let nic = s.nic in
      let out_start = Float.max now nic.out_free in
      let out_end = out_start +. (float_of_int (8 * bytes) /. nic.egress_bps) in
      nic.out_free <- out_end;
      let extra =
        if t.faults_active then
          Option.value (Hashtbl.find_opt t.link_delay (src, dst)) ~default:0.
        else 0.
      in
      let arrival = out_end +. Region.latency_table.(s.row + d.col) +. extra in
      (* Ingress occupancy is decided at arrival time: delay the enqueue.
         Both events — the arrival enqueue and the handler dispatch — are
         work done on behalf of the destination, so both carry its kind.
         The arrival event runs at [arrival], so it reads the time from the
         clock: a float kept in its closure would cost a box of its own. *)
      Engine.schedule_at ?kind:d.kind t.engine ~time:arrival (fun () ->
          if d.connected then begin
            let nic = d.nic in
            let in_start = Float.max (Engine.now t.engine) nic.in_free in
            let in_end = in_start +. (float_of_int (8 * bytes) /. nic.ingress_bps) in
            nic.in_free <- in_end;
            d.received <- d.received + bytes;
            Engine.schedule_at ?kind:d.kind t.engine ~time:in_end (fun () ->
                if d.connected then d.handler ~src msg)
          end)
    end
  end

let send t ~src ~dst ~bytes msg = transmit t ~src ~dst ~bytes msg

let send_lossy t ~src ~dst ~bytes msg =
  (* Uniform and per-link loss compose as independent drop events.  The
     RNG is only consulted when some loss applies, so fault-free runs keep
     the exact event stream (and traces) they had before link faults
     existed. *)
  let link =
    if t.faults_active then
      Option.value (Hashtbl.find_opt t.link_loss (src, dst)) ~default:0.
    else 0.
  in
  let p = 1. -. ((1. -. t.loss) *. (1. -. link)) in
  if p <= 0. || Rng.float t.rng 1.0 >= p then transmit t ~src ~dst ~bytes msg
  else begin
    (* Dropped packets still consume egress bandwidth at the sender. *)
    Repro_trace.Trace.Counter.incr t.c_lost;
    let s = node t src in
    if s.connected then charge_egress_only t s bytes
  end

let multicast t ~src ~dsts ~bytes msg =
  List.iter (fun dst -> transmit t ~src ~dst ~bytes msg) dsts

let disconnect t id = (node t id).connected <- false
let reconnect t id = (node t id).connected <- true
let is_connected t id = (node t id).connected

(* --- scheduled fault injection (lib/chaos) ------------------------------- *)

let partition t groups =
  let tbl = Hashtbl.create 64 in
  List.iteri (fun g nodes -> List.iter (fun n -> Hashtbl.replace tbl n g) nodes) groups;
  t.groups <- Some tbl;
  t.faults_active <- true

let refresh_faults_active t =
  t.faults_active <-
    t.groups <> None
    || Hashtbl.length t.link_loss > 0
    || Hashtbl.length t.link_delay > 0

let heal t =
  t.groups <- None;
  refresh_faults_active t

let set_link_loss t ~src ~dst loss =
  if loss <= 0. then Hashtbl.remove t.link_loss (src, dst)
  else Hashtbl.replace t.link_loss (src, dst) (Float.min loss 1.0);
  refresh_faults_active t

let degrade_link t ~src ~dst ~extra_latency =
  if extra_latency <= 0. then Hashtbl.remove t.link_delay (src, dst)
  else Hashtbl.replace t.link_delay (src, dst) extra_latency;
  refresh_faults_active t

let partitioned t = t.groups <> None

let partition_groups t =
  match t.groups with
  | None -> None
  | Some tbl ->
    (* Reconstruct the explicit groups; nodes absent from the table are
       implicitly in group 0 and are not listed. *)
    let by_group = Hashtbl.create 8 in
    Hashtbl.iter
      (fun node g ->
        let l = Option.value (Hashtbl.find_opt by_group g) ~default:[] in
        Hashtbl.replace by_group g (node :: l))
      tbl;
    let gs = Hashtbl.fold (fun g nodes acc -> (g, nodes) :: acc) by_group [] in
    let gs = List.sort (fun (a, _) (b, _) -> compare a b) gs in
    Some (List.map (fun (_, nodes) -> List.sort compare nodes) gs)

let bytes_sent t id = (node t id).sent
let bytes_received t id = (node t id).received
let node_region t id = (node t id).region
