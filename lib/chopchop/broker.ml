module Engine = Repro_sim.Engine
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Int_table = Repro_sim.Int_table
module Schnorr = Repro_crypto.Schnorr
module Multisig = Repro_crypto.Multisig
module Merkle = Repro_crypto.Merkle
module Trace = Repro_trace.Trace

type config = {
  broker_id : int;
  n_servers : int;
  clients : int;
  flush_period : float;
  reduce_timeout : float;
  witness_margin : int;
  max_batch : int;
}

(* Extend the witnessing set when no witness has formed after this long. *)
let witness_timeout = 2.0

(* Re-target the STOB relay when the submission is not acknowledged
   after this long. *)
let submit_timeout = 4.0

let default_config ~n_servers ~clients =
  { broker_id = 0; n_servers; clients;
    flush_period = 1.0; reduce_timeout = 1.0;
    witness_margin = 4; max_batch = 65_536 }

type submission = {
  sub_id : Types.client_id;
  sub_seq : Types.sequence_number;
  sub_msg : Types.message;
  sub_tsig : Schnorr.signature;
  sub_ctx : Trace.Ctx.t; (* causal context carried since the client *)
}

type reducing = {
  r_entries : Batch.entry array; (* sorted by id *)
  r_subs : submission Int_table.t; (* by client id *)
  r_agg_seq : int;
  r_tree : Merkle.t;
  r_shares : Multisig.signature Int_table.t; (* by client id; read in [r_entries] order *)
}

type in_flight = {
  w_batch : Batch.t;
  w_root : string; (* identity root *)
  w_base : int; (* witness-set rotation offset (batch number mod n) *)
  mutable w_shards : (int * Multisig.signature) list;
  mutable w_asked : int; (* how many servers were asked to witness *)
  mutable w_witness : Certs.quorum_cert option;
  mutable w_submit_target : int;
  mutable w_acked : bool;
  mutable w_completions : (int * string, (int * Multisig.signature) list) Hashtbl.t;
      (* (counter, exc_hash) -> shards *)
  mutable w_exceptions : (int * string, (Types.client_id * int) list) Hashtbl.t;
  mutable w_done : bool;
  w_on_complete : (Certs.delivery_cert -> unit) option; (* load-broker hook *)
}

type t = {
  engine : Engine.t;
  cpu : Cpu.t;
  cfg : config;
  membership : Membership.t; (* shared routing view of the active servers *)
  dir : Directory.t; (* a server's copy of the one Rank directory *)
  certs : Certs.checker; (* the deployment's *)
  send_server : dst:int -> bytes:int -> Proto.broker_to_server -> unit;
  send_client : client:Types.client_id -> bytes:int -> Proto.broker_to_client -> unit;
  send_anon : nonce:int -> bytes:int -> Proto.broker_to_client -> unit;
  stob_signup : Stob_item.t -> unit;
  (* Submission intake: one pooled submission per client, the highest
     sequence number seen.  This slot is the only per-client limit: a
     flood under one id costs one batch entry per flush. *)
  pool : submission Int_table.t; (* by client id; flushed in id order *)
  mutable flush_cursor : int; (* fair-queue rotation point for oversubscribed flushes *)
  mutable reducing : (string, reducing) Hashtbl.t; (* keyed by proposal root *)
  mutable flight : (string, in_flight) Hashtbl.t; (* keyed by identity root *)
  mutable number : int;
  mutable evidence : Certs.delivery_cert option; (* best legitimacy proof *)
  mutable completed : int;
  mutable entries_launched : int;
  mutable stragglers_launched : int;
  mutable crashed : bool;
  mutable signups_seen : (int, unit) Hashtbl.t;
  (* Byzantine fault injection (lib/chaos), mirroring the client's
     misbehave_* hooks.  All default to honest. *)
  mutable mis_equivocate : bool;
  mutable mis_garble : bool;
  mutable mis_malform : bool;
  mutable mis_withhold : bool;
  mis_twins : (string, string) Hashtbl.t; (* equivocal half -> the other *)
  k_timer : int option; (* Engine kind of broker timers, built once *)
  c_verify : Trace.Counter.t; (* signature-verification operations *)
}

let create ~engine ~cpu ~config ?membership ~directory ~certs
    ~send_server ~send_client ~send_anon ~stob_signup () =
  let membership =
    match membership with
    | Some m -> m
    | None ->
      Membership.create ~capacity:config.n_servers ~initial:config.n_servers
  in
  { engine; cpu; cfg = config; membership;
    dir = directory; certs; send_server; send_client; send_anon; stob_signup;
    pool = Int_table.create 1024;
    flush_cursor = 0;
    reducing = Hashtbl.create 8; flight = Hashtbl.create 32;
    number = 0; evidence = None; completed = 0;
    entries_launched = 0; stragglers_launched = 0; crashed = false;
    signups_seen = Hashtbl.create 64;
    mis_equivocate = false; mis_garble = false; mis_malform = false;
    mis_withhold = false; mis_twins = Hashtbl.create 8;
    k_timer = Some (Engine.kind engine "broker.timer");
    c_verify =
      Trace.Sink.counter (Engine.trace engine) ~cat:"crypto" ~name:"verify_ops" }

(* Trace actors: servers are [0, n); brokers shift by 1000 so their rows
   stay distinct in a Chrome timeline. *)
let tr t = Engine.trace t.engine
let tr_actor t = 1000 + t.cfg.broker_id

(* Fault threshold / quorum of the current epoch's active committee. *)
let bf t = Membership.f t.membership
let bq t = Membership.quorum t.membership

let batches_in_flight t = Hashtbl.length t.flight + Hashtbl.length t.reducing

let pool_depth t = Int_table.length t.pool

let batches_completed t = t.completed

let distillation_ratio t =
  if t.entries_launched = 0 then 1.0
  else
    1.0
    -. (float_of_int t.stragglers_launched /. float_of_int t.entries_launched)

let evidence_counter t = match t.evidence with Some e -> e.Certs.counter | None -> 0

(* --- legitimacy cache (§5.1) -------------------------------------------- *)

let note_evidence t (cert : Certs.delivery_cert) =
  (* Only certificates improving on the best one are verified at all. *)
  if cert.counter > evidence_counter t then begin
    (* Pure cache update, no message depends on it: fire-and-forget so
       legitimacy screening of the carrying submission is not delayed. *)
    Cpu.charge t.cpu ~work:(Cpu.serial Cost.bls_verify);
    Trace.Counter.incr t.c_verify;
    if Certs.check_delivery t.certs ~quorum:(bq t) cert then t.evidence <- Some cert
  end

let reject_instant t name ~id =
  let s = tr t in
  if Trace.enabled s then
    Trace.instant s ~now:(Engine.now t.engine) ~actor:(tr_actor t)
      ~cat:"broker" ~name ~id:(Trace.key (string_of_int id))
      ~attrs:[ ("client", Trace.A_int id) ]

(* --- submission intake (#2) ---------------------------------------------- *)

(* A client has one message in flight, so a newer submission supersedes
   the pooled one; a retransmission or an older one is dropped.  The pool
   holds at most one submission per client whatever a client sends. *)
let accept_submission t (sub : submission) =
  match Int_table.find t.pool sub.sub_id with
  | pooled when pooled.sub_seq >= sub.sub_seq -> ()
  | _ | (exception Not_found) -> Int_table.replace t.pool sub.sub_id sub

(* --- flush: build a proposal and ask for reductions (#3, #4) ------------- *)

let rec flush t =
  if Int_table.length t.pool > 0 && not t.crashed then begin
    let subs = Int_table.fold (fun _ s acc -> s :: acc) t.pool [] in
    let subs =
      List.sort (fun a b -> Int.compare a.sub_id b.sub_id) subs
    in
    let subs =
      if List.length subs <= t.cfg.max_batch then subs
      else begin
        (* Fair queueing: an oversubscribed pool is consumed in id order
           starting from where the previous flush stopped, so low client
           ids cannot starve high ones indefinitely. *)
        let above, below =
          List.partition (fun s -> s.sub_id >= t.flush_cursor) subs
        in
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: rest -> x :: take (n - 1) rest
        in
        let taken = take t.cfg.max_batch (above @ below) in
        (match List.rev taken with
         | last :: _ -> t.flush_cursor <- last.sub_id + 1
         | [] -> ());
        List.sort (fun a b -> Int.compare a.sub_id b.sub_id) taken
      end
    in
    List.iter (fun s -> Int_table.remove t.pool s.sub_id) subs;
    (* Bulk-authenticate the submissions (§5.1 EdDSA batch verification);
       on failure fall back to per-signature checks and drop forgeries.
       Completion-gated: no inclusion proof leaves before the charged
       verification work has run on the sim clock. *)
    let to_verify =
      List.map
        (fun s ->
          ( Directory.sig_pk t.dir s.sub_id,
            Types.message_statement ~id:s.sub_id ~seq:s.sub_seq s.sub_msg,
            s.sub_tsig ))
        subs
    in
    let n_subs = List.length subs in
    Cpu.submit t.cpu ~work:(Cpu.parallel (Cost.ed25519_batch_verify n_subs))
      (fun () ->
        if not t.crashed then begin
          Trace.Counter.incr t.c_verify;
          if Schnorr.batch_verify to_verify then propose t subs
          else
            (* The fallback is n {e individual} verifications — no
               batching amortization this time. *)
            Cpu.submit t.cpu
              ~work:(Cpu.parallel (float_of_int n_subs *. Cost.ed25519_verify))
              (fun () ->
                if not t.crashed then begin
                  Trace.Counter.add t.c_verify n_subs;
                  propose t
                    (List.filter
                       (fun s ->
                         Schnorr.verify
                           (Directory.sig_pk t.dir s.sub_id)
                           (Types.message_statement ~id:s.sub_id ~seq:s.sub_seq
                              s.sub_msg)
                           s.sub_tsig)
                       subs)
                end)
        end)
  end

and propose t subs =
  if subs <> [] && not t.crashed then begin
    let agg_seq = List.fold_left (fun k s -> max k s.sub_seq) 0 subs in
    let entries =
      Array.of_list
        (List.map (fun s -> { Batch.e_id = s.sub_id; e_msg = s.sub_msg }) subs)
    in
    let leaves =
      Array.map (fun e -> Batch.leaf ~id:e.Batch.e_id ~seq:agg_seq e.e_msg) entries
    in
    Cpu.submit t.cpu
      ~work:
        (Cpu.parallel
           (Cost.merkle_build ~leaves:(Array.length leaves)
              ~leaf_bytes:(String.length leaves.(0))))
      (fun () ->
        if not t.crashed then begin
          let tree = Merkle.build leaves in
          let root = Merkle.root tree in
          let r_subs = Int_table.create (Array.length entries) in
          List.iter (fun s -> Int_table.replace r_subs s.sub_id s) subs;
          let st =
            { r_entries = entries; r_subs; r_agg_seq = agg_seq; r_tree = tree;
              r_shares = Int_table.create (Array.length entries) }
          in
          Hashtbl.replace t.reducing root st;
          (let s = tr t in
           if Trace.enabled s then begin
             let now = Engine.now t.engine and actor = tr_actor t in
             Trace.span_begin s ~now ~actor
               ~cat:"broker" ~name:"distill" ~id:(Trace.key root)
               ~attrs:[ ("entries", Trace.A_int (Array.length entries)) ];
             (* One hop per included message, keyed by the propagated causal
                context, pointing at the proposal this broker folded it into —
                the client→broker link of the [--follow] tree. *)
             List.iter
               (fun sub ->
                 let ctx = Trace.Ctx.child sub.sub_ctx in
                 Trace.instant s ~now ~actor ~cat:"broker" ~name:"include"
                   ~id:(Trace.Ctx.root ctx)
                   ~attrs:
                     [ ("proposal", Trace.A_int (Trace.key root));
                       ("hop", Trace.A_int (Trace.Ctx.hop ctx)) ])
               subs
           end);
          (* #4: send each client its inclusion proof. *)
          Array.iteri
            (fun i e ->
              let proof = Merkle.prove tree i in
              t.send_client ~client:e.Batch.e_id
                ~bytes:(Wire.inclusion_bytes ~count:(Array.length entries))
                (Inclusion { root; proof; agg_seq; evidence = t.evidence }))
            entries;
          Engine.schedule ?kind:t.k_timer t.engine ~delay:t.cfg.reduce_timeout (fun () ->
              reduce t root)
        end)
  end

(* --- reduce: aggregate shares, build the distilled batch (#7) ------------ *)

and reduce t root =
  match Hashtbl.find_opt t.reducing root with
  | None -> ()
  | Some st ->
    if not t.crashed then begin
      Hashtbl.remove t.reducing root;
      (* Verify the shares in aggregate; isolate invalid ones in log time
         (§5.1 tree-search).  Aggregations are divisible work; the final
         pairing check is serial.  The batch may not launch before this
         completes on the sim clock. *)
      (* In entry (client id) order: the search for invalid shares
         splits this list in halves, so its order must not follow the
         table's hash. *)
      let share_list =
        Array.fold_right
          (fun e acc ->
            let id = e.Batch.e_id in
            match Int_table.find st.r_shares id with
            | share -> (id, Directory.ms_pk t.dir id, share) :: acc
            | exception Not_found -> acc)
          st.r_entries []
      in
      let statement = Types.reduction_statement ~root in
      Cpu.submit t.cpu
        ~work:
          (Cpu.work
             ~parallel:
               (Cost.bls_aggregate_sigs (List.length share_list)
               +. Cost.bls_aggregate_pks (List.length share_list))
             ~serial:Cost.bls_verify)
        (fun () ->
          if not t.crashed then begin
            Trace.Counter.incr t.c_verify;
            let agg_all =
              Multisig.aggregate_signatures
                (List.map (fun (_, _, s) -> s) share_list)
            in
            let pk_all =
              Multisig.aggregate_public_keys
                (List.map (fun (_, pk, _) -> pk) share_list)
            in
            if share_list = [] then distill_done t st root []
            else if Multisig.verify pk_all statement agg_all then
              distill_done t st root share_list
            else begin
              let entries = List.map (fun (_, pk, s) -> (pk, s)) share_list in
              let bad = Multisig.find_invalid entries statement in
              (* Tree-search verifications are sequentially dependent
                 pairings: serial work. *)
              Cpu.submit t.cpu
                ~work:
                  (Cpu.serial
                     (float_of_int (List.length bad + 1) *. Cost.bls_verify *. 8.))
                (fun () ->
                  if not t.crashed then begin
                    Trace.Counter.add t.c_verify ((List.length bad + 1) * 8);
                    distill_done t st root (Multisig.drop_indices bad share_list)
                  end)
            end
          end)
    end

(* Second half of [reduce], entered once the share verification work has
   completed: materialise the distilled batch and launch it. *)
and distill_done t st root valid_shares =
    begin
      let reduced_ids = List.map (fun (id, _, _) -> id) valid_shares in
      let reduced = Int_table.create (List.length reduced_ids) in
      List.iter (fun id -> Int_table.replace reduced id ()) reduced_ids;
      let stragglers =
        Array.of_list
          (Array.to_list st.r_entries
          |> List.filter_map (fun e ->
                 if Int_table.mem reduced e.Batch.e_id then None
                 else
                   let s = Int_table.find st.r_subs e.Batch.e_id in
                   Some { Batch.s_id = s.sub_id; s_seq = s.sub_seq; s_sig = s.sub_tsig }))
      in
      let agg_sig =
        match valid_shares with
        | [] -> None
        | shares ->
          Some (Multisig.aggregate_signatures (List.map (fun (_, _, s) -> s) shares))
      in
      let number = t.number in
      t.number <- number + 1;
      let batch =
        Batch.of_reduction_tree ~broker:t.cfg.broker_id ~number ~entries:st.r_entries
          ~agg_seq:st.r_agg_seq ~stragglers ~agg_sig st.r_tree
      in
      (let s = tr t in
       if Trace.enabled s then
         Trace.span_end s ~now:(Engine.now t.engine) ~actor:(tr_actor t)
           ~cat:"broker" ~name:"distill" ~id:(Trace.key root)
           ~attrs:[ ("stragglers", Trace.A_int (Array.length stragglers)) ]);
      if t.mis_equivocate && Array.length st.r_entries >= 2 then
        launch_equivocal t st number
      else begin
        let batch =
          (* Forged reduction multi-signature: the batch structure is
             intact but the aggregate does not verify against the
             reduction root, so correct servers refuse to witness. *)
          if t.mis_garble then
            { batch with Batch.agg_sig = Some (Multisig.forge_garbage ()) }
          else batch
        in
        let batch = if t.mis_malform then malform batch else batch in
        launch t batch ~on_complete:None
      end
    end

(* Tamper with one entry's message after the clients signed.  Roots are
   recomputed from the record, so the batch is self-consistent — but no
   client signature nor reduction multi-signature covers the new payload,
   which is exactly what [Batch.verify] exists to catch. *)
and malform batch =
  match batch.Batch.entries with
  | Batch.Explicit es when Array.length es > 0 ->
    let es = Array.copy es in
    es.(0) <- { es.(0) with Batch.e_msg = "\xff" ^ es.(0).Batch.e_msg };
    { batch with Batch.entries = Batch.Explicit es }
  | _ -> batch

(* Byzantine equivocation (§4.4, trustless brokers): two valid
   all-straggler batches claim the same (broker, number) slot, and each
   half of the server set is shown a different one.  Every individual
   signature checks out, so both variants can gather f+1 witness shards —
   only the servers' (broker, number) deduplication at STOB delivery
   guarantees that at most one of them is ever delivered. *)
and launch_equivocal t st number =
  let half lo len =
    let entries = Array.sub st.r_entries lo len in
    let stragglers =
      Array.map
        (fun e ->
          let s = Int_table.find st.r_subs e.Batch.e_id in
          { Batch.s_id = s.sub_id; s_seq = s.sub_seq; s_sig = s.sub_tsig })
        entries
    in
    Batch.make_explicit ~broker:t.cfg.broker_id ~number ~entries
      ~agg_seq:st.r_agg_seq ~stragglers ~agg_sig:None
  in
  let k = Array.length st.r_entries / 2 in
  let a = half 0 k and b = half k (Array.length st.r_entries - k) in
  launch t a ~on_complete:None ~only:(fun dst -> dst land 1 = 0)
    ~force_witness:true;
  launch t b ~on_complete:None ~only:(fun dst -> dst land 1 = 1)
    ~force_witness:true;
  (* Both halves are submitted together, each to its own relay server (see
     {!submit_certified}), so both are relayed and ordered. *)
  let ra = Batch.identity_root a and rb = Batch.identity_root b in
  Hashtbl.replace t.mis_twins ra rb;
  Hashtbl.replace t.mis_twins rb ra;
  let fb = Hashtbl.find t.flight rb in
  fb.w_submit_target <- fb.w_submit_target + 1

(* --- dissemination & witnessing (#8–#12) --------------------------------- *)

and launch ?(only = fun _ -> true) ?(force_witness = false) t batch ~on_complete =
  t.entries_launched <- t.entries_launched + Batch.count batch;
  t.stragglers_launched <- t.stragglers_launched + Batch.straggler_count batch;
  let root = Batch.identity_root batch in
  (* All per-flight rotation happens over the *active* server list of the
     current epoch; [w_base] and [w_submit_target] are indices into it. *)
  let active = Membership.active_slots t.membership in
  let n_act = max 1 (List.length active) in
  let fl =
    { w_batch = batch; w_root = root;
      w_base =
        (* Hash-spread, not plain [number mod n]: many brokers start their
           numbering at 0 simultaneously, which would pile the witness
           load onto the same servers. *)
        (((batch.Batch.number * 0x9E3779B1) lxor (t.cfg.broker_id * 0x85EBCA77))
         land max_int)
        mod n_act;
      w_shards = []; w_asked = min n_act (bf t + 1 + t.cfg.witness_margin);
      w_witness = None;
      w_submit_target = (batch.Batch.number + (t.cfg.broker_id * 7)) mod n_act;
      w_acked = false;
      w_completions = Hashtbl.create 4; w_exceptions = Hashtbl.create 4;
      w_done = false; w_on_complete = on_complete }
  in
  Hashtbl.replace t.flight root fl;
  (* Serialization of the batch for the active links is divisible work;
     the announcements depart only when it completes on the sim clock, so
     the "launch" instant below always coincides with a cpu job_done. *)
  let bytes = Batch.wire_bytes ~clients:t.cfg.clients batch in
  Cpu.submit t.cpu
    ~work:
      (Cpu.parallel (float_of_int (bytes * n_act) *. Cost.serialize_per_byte))
    (fun () ->
      if (not t.crashed) && Hashtbl.mem t.flight root then begin
        (let s = tr t in
         if Trace.enabled s then begin
           let now = Engine.now t.engine and actor = tr_actor t in
           let id = Trace.key root in
           (* The "reduction" attr links this identity-rooted flight back
              to the proposal-rooted distill span, so a batch can be
              followed end to end across the root change. *)
           Trace.instant s ~now ~actor ~cat:"broker" ~name:"launch" ~id
             ~attrs:
               [ ("reduction", Trace.A_int (Trace.key (Batch.reduction_root batch)));
                 ("number", Trace.A_int batch.Batch.number);
                 ("entries", Trace.A_int (Batch.count batch));
                 ("stragglers", Trace.A_int (Batch.straggler_count batch)) ];
           Trace.span_begin s ~now ~actor ~cat:"broker" ~name:"witness" ~id
         end);
        (* Rotate the witnessing set with the batch number so the
           verification load spreads over all active servers (and degrades
           gracefully when some crash, Fig. 11a).  Announcements are
           re-resolved against the membership at send time: a slot that
           left between distillation and launch gets nothing. *)
        let active = Membership.active_slots t.membership in
        let n_now = max 1 (List.length active) in
        List.iteri
          (fun k dst ->
            let slot = (k - fl.w_base + n_now) mod n_now in
            if only dst then
              t.send_server ~dst ~bytes
                (Batch_announce
                   { batch;
                     witness_requested = force_witness || slot < fl.w_asked }))
          active;
        arm_witness_extension t root
      end)

and arm_witness_extension t root =
  Engine.schedule ?kind:t.k_timer t.engine ~delay:witness_timeout (fun () ->
      match Hashtbl.find_opt t.flight root with
      | Some fl when fl.w_witness = None && not t.crashed ->
        let active = Membership.active_slots t.membership in
        let n_act = max 1 (List.length active) in
        if fl.w_asked < n_act then begin
          let upto = min n_act (fl.w_asked + bf t) in
          for slot = fl.w_asked to upto - 1 do
            let dst = List.nth active ((fl.w_base + slot) mod n_act) in
            t.send_server ~dst ~bytes:Wire.witness_request_bytes
              (Witness_request { root })
          done;
          fl.w_asked <- upto;
          arm_witness_extension t root
        end
      | Some _ | None -> ())

and on_witness_shard t ~src fl share =
  if fl.w_witness = None then
    (* One pairing per shard, serial; the certificate may not be
       assembled (nor the reference submitted) before it completes. *)
    Cpu.submit t.cpu ~work:(Cpu.serial Cost.bls_verify) @@ fun () ->
    if fl.w_witness = None && (not fl.w_done) && not t.crashed then begin
    Trace.Counter.incr t.c_verify;
    let statement =
      Certs.witness_statement ~root:fl.w_root ~broker:t.cfg.broker_id
        ~number:fl.w_batch.Batch.number
    in
    if not (Multisig.verify (Certs.server_pk t.certs src) statement share) then begin
      let s = tr t in
      if Trace.enabled s then
        Trace.instant s ~now:(Engine.now t.engine) ~actor:(tr_actor t)
          ~cat:"broker" ~name:"reject_shard" ~id:(Trace.key fl.w_root)
          ~attrs:[ ("src", Trace.A_int src) ]
    end
    else if not (List.mem_assoc src fl.w_shards) then begin
      fl.w_shards <- (src, share) :: fl.w_shards;
      if List.length fl.w_shards >= bq t then begin
        let witness = Certs.assemble fl.w_shards in
        fl.w_witness <- Some witness;
        (let s = tr t in
         if Trace.enabled s then begin
           let now = Engine.now t.engine and actor = tr_actor t in
           let id = Trace.key fl.w_root in
           Trace.span_end s ~now ~actor ~cat:"broker" ~name:"witness" ~id;
           Trace.span_begin s ~now ~actor ~cat:"broker" ~name:"certify" ~id
         end);
        submit_certified t fl witness
      end
    end
  end

(* An equivocal half waits for its twin's certificate: submitted one after
   the other, the second would reach a server that had already ordered the
   first, and be acknowledged without being relayed. *)
and submit_certified t fl witness =
  match Hashtbl.find_opt t.mis_twins fl.w_root with
  | None -> submit_ref t fl witness
  | Some twin ->
    (match Hashtbl.find_opt t.flight twin with
     | Some { w_witness = None; _ } -> ()
     | Some ({ w_witness = Some twin_witness; _ } as tf) ->
       Hashtbl.remove t.mis_twins fl.w_root;
       Hashtbl.remove t.mis_twins twin;
       submit_ref t fl witness;
       submit_ref t tf twin_witness
     | None -> submit_ref t fl witness)

and submit_ref t fl witness =
  (* #12: hand (root, witness) to one *active* server to relay into the
     STOB; rotate to the next one if no acknowledgement arrives. *)
  let active = Membership.active_slots t.membership in
  let n_act = max 1 (List.length active) in
  let dst = List.nth active (fl.w_submit_target mod n_act) in
  t.send_server ~dst ~bytes:Wire.stob_submission_bytes
    (Submit { root = fl.w_root; number = fl.w_batch.Batch.number; witness });
  Engine.schedule ?kind:t.k_timer t.engine ~delay:submit_timeout (fun () ->
      if (not fl.w_acked) && (not fl.w_done) && not t.crashed then begin
        fl.w_submit_target <- (fl.w_submit_target + 1) mod n_act;
        submit_ref t fl witness
      end)

(* --- completion (#17, #18) ------------------------------------------------ *)

and on_completion_shard t ~src fl ~counter ~exceptions share =
  if not fl.w_done then
    Cpu.submit t.cpu ~work:(Cpu.serial Cost.bls_verify) @@ fun () ->
    if (not fl.w_done) && not t.crashed then begin
    let exc_hash = Certs.exceptions_hash exceptions in
    let key = (counter, exc_hash) in
    Trace.Counter.incr t.c_verify;
    let statement = Certs.completion_statement ~root:fl.w_root ~counter ~exc_hash in
    if Multisig.verify (Certs.server_pk t.certs src) statement share then begin
      let prev = Option.value (Hashtbl.find_opt fl.w_completions key) ~default:[] in
      if not (List.mem_assoc src prev) then begin
        let shards = (src, share) :: prev in
        Hashtbl.replace fl.w_completions key shards;
        Hashtbl.replace fl.w_exceptions key exceptions;
        if List.length shards >= bq t then finish t fl ~counter ~exceptions shards
      end
    end
    else begin
      let s = tr t in
      if Trace.enabled s then
        Trace.instant s ~now:(Engine.now t.engine) ~actor:(tr_actor t)
          ~cat:"broker" ~name:"reject_completion" ~id:(Trace.key fl.w_root)
          ~attrs:[ ("src", Trace.A_int src) ]
    end
  end

and finish t fl ~counter ~exceptions shards =
  fl.w_done <- true;
  (let s = tr t in
   if Trace.enabled s then begin
     let now = Engine.now t.engine and actor = tr_actor t in
     let id = Trace.key fl.w_root in
     Trace.span_end s ~now ~actor ~cat:"broker" ~name:"certify" ~id;
     Trace.instant s ~now ~actor ~cat:"broker" ~name:"complete" ~id
       ~attrs:
         [ ("counter", Trace.A_int counter);
           ("exceptions", Trace.A_int (List.length exceptions)) ]
   end);
  let qc = Certs.assemble shards in
  let cert = { Certs.root = fl.w_root; counter; exceptions; qc } in
  if cert.counter > evidence_counter t then t.evidence <- Some cert;
  t.completed <- t.completed + 1;
  (match fl.w_on_complete with
   | Some k -> k cert
   | None when t.mis_withhold ->
     (* Byzantine broker: sit on the delivery certificates.  The messages
        are ordered and delivered server-side regardless; clients time
        out, resubmit via another broker, and complete through the
        exceptions path (§4.4 — brokers are trustless for liveness too,
        as long as one correct broker exists). *)
     ()
   | None ->
     (* #18: distribute the delivery certificate to every client of the
        batch, with its inclusion proof in the identity root. *)
     (match fl.w_batch.Batch.entries with
      | Batch.Explicit entries ->
        let seqs = Batch.entry_seqs fl.w_batch in
        let tree =
          Merkle.build
            (Array.mapi
               (fun i e -> Batch.leaf ~id:e.Batch.e_id ~seq:seqs.(i) e.Batch.e_msg)
               entries)
        in
        Array.iteri
          (fun i e ->
            let proof = Merkle.prove tree i in
            t.send_client ~client:e.Batch.e_id ~bytes:Wire.delivery_cert_bytes
              (Deliver_cert { cert; seq = seqs.(i); proof = Some proof }))
          entries
      | Batch.Dense _ -> ()));
  Hashtbl.remove t.flight fl.w_root

(* --- entry points ---------------------------------------------------------- *)

let start t =
  Engine.every ?kind:t.k_timer t.engine ~period:t.cfg.flush_period (fun () ->
      if not t.crashed then flush t)

let receive_client t msg =
  if not t.crashed then
    match msg with
    | Proto.Submission { id; seq; msg; tsig; evidence; ctx } ->
      (* Sybil screening before anything else: an identity the directory
         has never issued must not reach the signature pipeline (its
         sig_pk lookup would fail) nor consume pool memory. *)
      if id < 0 || id >= Directory.size t.dir then
        reject_instant t "reject_unknown" ~id
      else begin
        (* Legitimacy screening with the cached-best rule (§5.1). *)
        (match evidence with Some e -> note_evidence t e | None -> ());
        if Certs.legitimizes t.evidence seq then
          accept_submission t
            { sub_id = id; sub_seq = seq; sub_msg = msg; sub_tsig = tsig;
              sub_ctx = ctx }
      end
    | Proto.Reduction { id; root; share } ->
      (match Hashtbl.find_opt t.reducing root with
       | Some st when Int_table.mem st.r_subs id ->
         (* Shares are stored now, verified in aggregate at reduce time. *)
         Int_table.replace st.r_shares id share
       | Some _ | None -> ())
    | Proto.Signup_request { card; nonce } ->
      if not (Hashtbl.mem t.signups_seen nonce) then begin
        Hashtbl.add t.signups_seen nonce ();
        t.stob_signup
          (Stob_item.Signup { card; reply_broker = t.cfg.broker_id; nonce })
      end

let receive_server t ~src msg =
  if not t.crashed then
    match msg with
    | Proto.Witness_shard { root; share } ->
      (match Hashtbl.find_opt t.flight root with
       | Some fl -> on_witness_shard t ~src fl share
       | None -> ())
    | Proto.Completion_shard { root; counter; exceptions; share } ->
      (match Hashtbl.find_opt t.flight root with
       | Some fl -> on_completion_shard t ~src fl ~counter ~exceptions share
       | None -> ())
    | Proto.Submit_ack { root } ->
      (match Hashtbl.find_opt t.flight root with
       | Some fl -> fl.w_acked <- true
       | None -> ())
    | Proto.Signup_done { nonce; id } ->
      if Hashtbl.mem t.signups_seen nonce then begin
        Hashtbl.remove t.signups_seen nonce;
        t.send_anon ~nonce ~bytes:(Wire.header_bytes + 16)
          (Signup_response { nonce; id })
      end

let submit_prebuilt t batch ~on_complete =
  if not t.crashed then begin
    (* Renumber with this broker's own counter: pre-built batches share
       the (broker, number) namespace with batches distilled from live
       client submissions, and servers deduplicate on that pair. *)
    let batch = { batch with Batch.number = t.number } in
    t.number <- t.number + 1;
    launch t batch ~on_complete:(Some on_complete)
  end

let crash t = t.crashed <- true

let recover t = t.crashed <- false
(* The broker keeps no server-side state: its periodic flush loop is still
   armed (the callback is guarded on [crashed]), so submissions simply
   start batching again.  In-flight batches from before the crash resume
   only if none of their retry timers (witness extension, submission
   rotation) fired while the broker was down: such a timer returns
   without re-arming, so that batch may never be ordered.  Its clients'
   resubmission timeouts take over, and its number stays a permanent hole
   in every server's ref window (DESIGN.md §4b, item 14). *)

(* Byzantine switches (lib/chaos).  One-way by design, like Client's. *)

let misbehave_equivocate t = t.mis_equivocate <- true
let misbehave_garble_reduction t = t.mis_garble <- true
let misbehave_malform t = t.mis_malform <- true
let misbehave_withhold_certs t = t.mis_withhold <- true
