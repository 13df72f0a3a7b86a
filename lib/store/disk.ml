module Engine = Repro_sim.Engine
module Cost = Repro_sim.Cost

type t = {
  engine : Engine.t;
  fsync_s : float;
  write_bps : float;
  read_bps : float;
  kind : int option; (* Engine kind of I/O completions, built once *)
  stamp : Engine.stamp; (* an operation's finish time on its way to the engine *)
  mutable next_free : float;
  mutable total_busy : float;
  mutable bytes_written : int;
  mutable bytes_read : int;
  mutable fsyncs : int;
  mutable reads : int;
}

let create engine ?(fsync_s = Cost.disk_fsync_s) ?(write_bps = Cost.disk_write_bps)
    ?(read_bps = Cost.disk_read_bps) () =
  if write_bps <= 0. || read_bps <= 0. then
    invalid_arg "Disk.create: bandwidth must be positive";
  { engine; fsync_s; write_bps; read_bps;
    kind = Some (Engine.kind engine "disk.io"); stamp = Engine.stamp ();
    next_free = 0.; total_busy = 0.;
    bytes_written = 0; bytes_read = 0; fsyncs = 0; reads = 0 }

(* One device-serial queue, exactly like {!Repro_sim.Cpu}: operations
   start when the device frees up and complete after their duration. *)
let submit t ~duration k =
  if duration < 0. then invalid_arg "Disk.submit: negative duration";
  let start = Float.max (Engine.now t.engine) t.next_free in
  let finish = start +. duration in
  t.next_free <- finish;
  t.total_busy <- t.total_busy +. duration;
  t.stamp.at <- finish;
  Engine.schedule_stamp ?kind:t.kind t.engine t.stamp k

let write t ~bytes k =
  if bytes < 0 then invalid_arg "Disk.write: negative bytes";
  t.bytes_written <- t.bytes_written + bytes;
  t.fsyncs <- t.fsyncs + 1;
  submit t ~duration:(t.fsync_s +. (float_of_int bytes /. t.write_bps)) k

let read t ~bytes k =
  if bytes < 0 then invalid_arg "Disk.read: negative bytes";
  t.bytes_read <- t.bytes_read + bytes;
  t.reads <- t.reads + 1;
  submit t ~duration:(float_of_int bytes /. t.read_bps) k

let backlog t = Float.max 0. (t.next_free -. Engine.now t.engine)
let busy_seconds t = t.total_busy
let bytes_written t = t.bytes_written
let bytes_read t = t.bytes_read
let fsyncs t = t.fsyncs
let reads t = t.reads

let utilization t ~since =
  let elapsed = Engine.now t.engine -. since in
  if elapsed <= 0. then 0. else Float.min 1. (t.total_busy /. elapsed)
