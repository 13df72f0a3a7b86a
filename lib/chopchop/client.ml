module Engine = Repro_sim.Engine
module Rng = Repro_sim.Rng
module Cost = Repro_sim.Cost
module Schnorr = Repro_crypto.Schnorr
module Multisig = Repro_crypto.Multisig
module Merkle = Repro_crypto.Merkle
module Trace = Repro_trace.Trace

type config = {
  brokers : int list;
  clients : int;
}

(* Resubmission backoff: the first delay, and the cap it doubles up to. *)
let resubmit_timeout = 8.0
let max_resubmit_timeout = 60.0

(* The last inclusion proof that checked out: its root, the sequence
   number its leaf was made for, and the proof. *)
type proven = { pv_root : string; pv_seq : int; pv_proof : Merkle.proof }

type in_flight = {
  fl_msg : Types.message;
  fl_seq : int; (* sequence number submitted (#2) *)
  fl_tsig : Schnorr.signature; (* over (id, fl_seq, fl_msg), for every resubmission *)
  mutable fl_adopted : int; (* aggregate sequence number adopted, >= fl_seq *)
  fl_started : float;
  mutable fl_proven : proven option;
}

type t = {
  engine : Engine.t;
  cfg : config;
  kp : Types.keypair;
  membership : Membership.t; (* live committee view (the deployment's) *)
  certs : Certs.checker; (* the deployment's *)
  send_broker : broker:int -> bytes:int -> Proto.client_to_broker -> unit;
  on_delivered : Types.message -> latency:float -> unit;
  nonce : int;
  mutable id : Types.client_id option;
  mutable broker_idx : int;
  mutable seq : int; (* next sequence number to use *)
  mutable evidence : Certs.delivery_cert option;
  queue : Types.message Queue.t;
  mutable flight : in_flight option;
  mutable timeout : Engine.timer option;
      (* the pending signup/resubmit timeout; identity, a new submission
         and completion each cancel it *)
  rng : Rng.t; (* private stream: jitter draws never touch engine randomness *)
  mutable backoff : float; (* current resubmission delay *)
  mutable completed : int;
  mutable crashed : bool;
  mutable bad_share : bool;
  mutable mute_reduction : bool;
  k_timer : int option; (* Engine kind of client timers, built once *)
  c_verify : Trace.Counter.t; (* signature verifications (certificates) *)
}

(* Per-client jitter stream, seeded from the deployment-unique nonce:
   resubmission jitter never touches engine randomness. *)
let jitter_rng ~nonce =
  Rng.create
    (Int64.logxor 0x6A09E667F3BCC909L
       (Int64.mul (Int64.of_int (nonce + 1)) 0x9E3779B97F4A7C15L))

let create ~engine ~config ~keypair ~membership ~certs ~send_broker
    ?(on_delivered = fun _ ~latency:_ -> ()) ?(nonce = 0) () =
  { engine; cfg = config; kp = keypair; membership;
    certs; send_broker; on_delivered; nonce;
    id = None; broker_idx = 0; seq = 0; evidence = None;
    queue = Queue.create (); flight = None; timeout = None;
    rng = jitter_rng ~nonce;
    backoff = resubmit_timeout;
    completed = 0;
    crashed = false; bad_share = false; mute_reduction = false;
    k_timer = Some (Engine.kind engine "client.timer");
    c_verify =
      Trace.Sink.counter (Engine.trace engine) ~cat:"crypto" ~name:"verify_ops" }

let id t = t.id
let pending t = Queue.length t.queue + match t.flight with Some _ -> 1 | None -> 0
let completed t = t.completed
let last_sequence t = t.seq - 1
let crash t = t.crashed <- true
let misbehave_bad_share t = t.bad_share <- true
let misbehave_mute_reduction t = t.mute_reduction <- true

(* Correlation id of one (client, sequence-number) message attempt: the
   same key is emitted at send time and at delivery-certificate time, so a
   message's end-to-end path can be joined from the trace alone. *)
let msg_key ~id ~seq = Hashtbl.hash (id, seq) land 0x3FFFFFFF

let tr_actor ~id = 2000 + id

(* Certificate quorum: reconfiguration changes f at the same ordered rank
   on every server, and the deployment applies the committee view shared
   with the clients at the same instant — so certificates are always
   checked against the thresholds of the epoch that produced them. *)
let cquorum t = Membership.quorum t.membership

let current_broker t = List.nth t.cfg.brokers (t.broker_idx mod List.length t.cfg.brokers)

let next_broker t = t.broker_idx <- t.broker_idx + 1

(* Fleet failover recovery: when this client's home broker comes back,
   point the rotation at the head of the preference list again and forget
   the accumulated backoff — the next submission goes home directly. *)
let rehome t =
  t.broker_idx <- 0;
  t.backoff <- resubmit_timeout

let msg_bytes t = match t.flight with Some fl -> String.length fl.fl_msg | None -> 8

(* Exponential backoff with deterministic seeded jitter: each retry draws
   the next delay from the client's private stream as ±25% around the
   current backoff value, then doubles it up to [max_resubmit_timeout].
   Without the jitter, every client that lost the same broker would fail
   over in lockstep and hammer the fallback broker with a synchronized
   resubmission storm. *)
let resubmit_delay t =
  let d = t.backoff in
  t.backoff <- Float.min max_resubmit_timeout (t.backoff *. 2.0);
  d *. (0.75 +. Rng.float t.rng 0.5)

let reset_backoff t = t.backoff <- resubmit_timeout

let arm_timeout t f =
  t.timeout <-
    Some (Engine.timer ?kind:t.k_timer t.engine ~delay:(resubmit_delay t) f)

let cancel_timeout t = Option.iter Engine.cancel t.timeout

(* --- sign-up (Appx. C) ---------------------------------------------------- *)

let rec signup t =
  if t.id = None && not t.crashed then begin
    t.send_broker ~broker:(current_broker t)
      ~bytes:(Wire.header_bytes + (2 * Wire.pk_bytes) + 8)
      (Signup_request { card = t.kp.card; nonce = t.nonce });
    arm_timeout t (fun () ->
        if t.id = None && not t.crashed then begin
          next_broker t;
          signup t
        end)
  end

(* --- submission (#2) ------------------------------------------------------- *)

let rec submit t =
  match (t.flight, t.id) with
  | Some fl, Some id when not t.crashed ->
    let ctx = Trace.Ctx.make ~root:(msg_key ~id ~seq:fl.fl_seq) in
    t.send_broker ~broker:(current_broker t)
      ~bytes:(Wire.submission_bytes ~clients:t.cfg.clients ~msg_bytes:(msg_bytes t))
      (Submission
         { id; seq = fl.fl_seq; msg = fl.fl_msg; tsig = fl.fl_tsig;
           evidence = t.evidence; ctx });
    arm_timeout t (fun () ->
        if not t.crashed then begin
          (* No progress: fall back on a different broker (§4.4.2). *)
          next_broker t;
          submit t
        end)
  | _ -> ()

let launch_next t =
  match t.id with
  | Some id when t.flight = None && not (Queue.is_empty t.queue || t.crashed) ->
    let msg = Queue.pop t.queue in
    t.flight <-
      Some { fl_msg = msg; fl_seq = t.seq;
             fl_tsig =
               Schnorr.sign t.kp.sig_sk (Types.message_statement ~id ~seq:t.seq msg);
             fl_adopted = t.seq; fl_started = Engine.now t.engine;
             fl_proven = None };
    (let s = Engine.trace t.engine in
     if Trace.enabled s then
       Trace.instant s ~now:(Engine.now t.engine) ~actor:(tr_actor ~id)
         ~cat:"client" ~name:"send" ~id:(msg_key ~id ~seq:t.seq)
         ~attrs:[ ("seq", Trace.A_int t.seq) ]);
    cancel_timeout t;
    reset_backoff t;
    submit t
  | Some _ | None -> ()

let broadcast t msg =
  Queue.add msg t.queue;
  launch_next t

(* --- inclusion & reduction (#4–#6) ----------------------------------------- *)

let on_inclusion t ~root ~proof ~agg_seq ~evidence =
  match (t.flight, t.id) with
  | Some fl, Some id when not t.mute_reduction ->
    (* The proof must commit to exactly our payload under the aggregate
       sequence number (a forging broker fails here, §4.2). *)
    let leaf = Batch.leaf ~id ~seq:agg_seq fl.fl_msg in
    if
      Merkle.verify root ~leaf proof
      && agg_seq >= fl.fl_seq
      && (agg_seq = fl.fl_seq || Certs.legitimizes evidence agg_seq)
      && (match evidence with
          | None -> agg_seq = fl.fl_seq
          | Some e ->
            Trace.Counter.incr t.c_verify;
            Certs.check_delivery t.certs ~quorum:(cquorum t) e)
    then begin
      fl.fl_proven <-
        Some { pv_root = root; pv_seq = agg_seq; pv_proof = proof };
      fl.fl_adopted <- max fl.fl_adopted agg_seq;
      let share =
        if t.bad_share then Multisig.forge_garbage ()
        else Multisig.sign t.kp.ms_sk (Types.reduction_statement ~root)
      in
      (* The BLS share takes [client_multisig_sign] on the t3.small's one
         core; the reduction may not depart before the signing is done. *)
      Engine.schedule ?kind:t.k_timer t.engine ~delay:Cost.client_multisig_sign (fun () ->
          match t.flight with
          | Some fl' when fl' == fl && not t.crashed ->
            t.send_broker ~broker:(current_broker t) ~bytes:Wire.reduction_bytes
              (Reduction { id; root; share })
          | Some _ | None -> ())
    end
  | _ -> ()

(* --- completion (#18–#19) --------------------------------------------------- *)

let on_deliver_cert t ~cert ~seq ~proof =
  match (t.flight, t.id) with
  | Some fl, Some id ->
    Trace.Counter.incr t.c_verify;
    if Certs.check_delivery t.certs ~quorum:(cquorum t) cert then begin
      (* Track the freshest legitimacy evidence regardless of whose batch
         this certifies. *)
      (match t.evidence with
       | Some e when e.Certs.counter >= cert.Certs.counter -> ()
       | Some _ | None -> t.evidence <- Some cert);
      let ours =
        match proof with
        | Some proof ->
          let root = cert.Certs.root in
          (* The proof that checked out at inclusion, under this root and
             for this sequence number, needs no second check: the leaf
             spells the sequence number out, so another one is another
             leaf.  Any other proof is checked, and only then is the leaf
             made. *)
          (match fl.fl_proven with
           | Some pv ->
             pv.pv_seq = seq && String.equal pv.pv_root root
             && Merkle.proof_equal pv.pv_proof proof
           | None -> false)
          || Merkle.verify root ~leaf:(Batch.leaf ~id ~seq fl.fl_msg) proof
        | None -> false
      in
      let replayed = List.mem_assoc id cert.Certs.exceptions in
      if ours || replayed then begin
        let latency = Engine.now t.engine -. fl.fl_started in
        (let s = Engine.trace t.engine in
         if Trace.enabled s then
           Trace.instant s ~now:(Engine.now t.engine) ~actor:(tr_actor ~id)
             ~cat:"client" ~name:"deliver" ~id:(msg_key ~id ~seq:fl.fl_seq)
             ~attrs:
               [ ("root", Trace.A_int (Trace.key cert.Certs.root));
                 ("latency", Trace.A_float latency) ]);
        t.seq <- max t.seq (max fl.fl_adopted seq) + 1;
        t.flight <- None;
        cancel_timeout t;
        t.completed <- t.completed + 1;
        t.on_delivered fl.fl_msg ~latency;
        launch_next t
      end
    end
    else
      (* Forged or sub-quorum certificate (a Byzantine broker at work):
         ignore it and let the resubmission timer route around. *)
      let s = Engine.trace t.engine in
      if Trace.enabled s then
        Trace.instant s ~now:(Engine.now t.engine) ~actor:(tr_actor ~id)
          ~cat:"client" ~name:"reject_cert" ~id:(msg_key ~id ~seq:fl.fl_seq)
  | _ -> ()

let receive t msg =
  if not t.crashed then
    match msg with
    | Proto.Inclusion { root; proof; agg_seq; evidence } ->
      on_inclusion t ~root ~proof ~agg_seq ~evidence
    | Proto.Deliver_cert { cert; seq; proof } -> on_deliver_cert t ~cert ~seq ~proof
    | Proto.Signup_response { nonce; id } ->
      if nonce = t.nonce && t.id = None then begin
        t.id <- Some id;
        cancel_timeout t;
        reset_backoff t;
        launch_next t
      end

let force_identity t id =
  t.id <- Some id;
  launch_next t
