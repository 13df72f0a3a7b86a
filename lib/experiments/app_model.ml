module Proto = Repro_chopchop.Proto

type calibration = {
  app : string;
  measured_op_ns : float;
  cores : int;
  capacity : float;
}

(* Per-message delivery overhead, single-core seconds (fitted once
   against §6.8 and documented in DESIGN.md). *)
let dispatch_overhead_s = 0.45e-6

let time_ops f ops =
  (* Warm, then measure with the process clock; enough iterations that
     clock resolution is irrelevant. *)
  ignore (f ());
  let t0 = Sys.time () in
  ignore (f ());
  let dt = Sys.time () -. t0 in
  dt /. float_of_int ops

let calibration_of ~app ~cores per_op_s =
  let total = dispatch_overhead_s +. per_op_s in
  { app; measured_op_ns = per_op_s *. 1e9; cores;
    capacity = float_of_int cores /. total }

let ops = 2_000_000

let calibrate () =
  let bulk tag = Proto.Bulk { first_id = 0; count = ops; tag; msg_bytes = 8 } in
  let payments =
    let t = Repro_apps.Payments.create () in
    time_ops (fun () -> Repro_apps.Payments.apply_delivery t (bulk 1)) ops
  in
  let auction =
    let t = Repro_apps.Auction.create () in
    time_ops (fun () -> Repro_apps.Auction.apply_delivery t (bulk 2)) ops
  in
  let pixelwar =
    let t = Repro_apps.Pixelwar.create () in
    time_ops (fun () -> Repro_apps.Pixelwar.apply_delivery t (bulk 3)) ops
  in
  [ calibration_of ~app:"Auction" ~cores:1 auction;
    calibration_of ~app:"Payments" ~cores:16 payments;
    calibration_of ~app:"Pixel war" ~cores:16 pixelwar ]

let fig11b ~chopchop_max =
  List.map
    (fun c -> (c.app, Float.min c.capacity chopchop_max))
    (calibrate ())
