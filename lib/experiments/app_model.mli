(** Application throughput model (Fig. 11b, §6.8).

    The paper reports the {e maximal stable throughput} with the
    application as the bottleneck: Payments and Pixel war run in parallel
    across a server's physical cores, the Auction is single-threaded.

    Per-operation application cost is {e measured live} on this
    repository's real OCaml implementations ({!calibrate} runs the actual
    state machines), then a fixed per-message delivery-dispatch overhead
    (channel hop, allocation, accounting — the part of the paper's app
    path our state machines do not include) is added; capacity is
    [cores / (dispatch + measured)], and the reported throughput is capped
    by Chop Chop's own maximum. *)

type calibration = {
  app : string;
  measured_op_ns : float; (* live-measured per-op cost of our app *)
  cores : int; (* 1 for the single-threaded Auction, 16 otherwise *)
  capacity : float; (* op/s the app can absorb *)
}

val calibrate : unit -> calibration list
(** Runs each application on synthetic bulk deliveries and times it with
    the process clock. *)

val fig11b : chopchop_max:float -> (string * float) list
(** [(app, throughput)] rows: min(app capacity, Chop Chop's measured
    maximum). *)
