module Trace = Repro_trace.Trace

type hop = {
  h_phase : string;
  h_start : float;
  h_finish : float;
  h_actor : int;
  h_hop : int;
  h_detail : string;
}

type t = {
  p_key : int;
  p_client : int;
  p_seq : int option;
  p_proposal : int;
  p_batch : int;
  p_send : float;
  p_deliver : float;
  p_hops : hop list;
  p_ctx_verified : bool;
}

(* The five pipeline phases, in order; each ends where the next begins. *)
let phases = [ "submission"; "distillation"; "witnessing"; "ordering"; "delivery" ]

type index = {
  delivers : Trace.event list; (* client "deliver" instants, event order *)
  candidates : int list; (* their keys, deduplicated, event order *)
  send : (int, Trace.event) Hashtbl.t; (* first client "send" per key *)
  deliver : (int, Trace.event) Hashtbl.t; (* first client "deliver" per key *)
  includes : (int, int * int) Hashtbl.t;
      (* broker "include" (proposal, hop) per key, all kept (find_all) *)
  launch : (int, Trace.event * int) Hashtbl.t;
      (* first broker "launch" per batch, with its reduction key *)
  distill : (int, Trace.Span.t) Hashtbl.t; (* first "distill" span per proposal *)
  witness : (int, Trace.Span.t) Hashtbl.t; (* first "witness" span per batch *)
  ordered : (int, Trace.event) Hashtbl.t; (* earliest server "ordered" per batch *)
}

let index events =
  let idx =
    { delivers = []; candidates = [];
      send = Hashtbl.create 256; deliver = Hashtbl.create 256;
      includes = Hashtbl.create 256; launch = Hashtbl.create 64;
      distill = Hashtbl.create 64; witness = Hashtbl.create 64;
      ordered = Hashtbl.create 64 }
  in
  let add_first tbl k v = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v in
  List.iter
    (fun (s : Trace.Span.t) ->
      if s.sp_cat = "broker" then
        match s.sp_name with
        | "distill" -> add_first idx.distill s.sp_id s
        | "witness" -> add_first idx.witness s.sp_id s
        | _ -> ())
    (Trace.Span.pair events);
  let delivers = ref [] and candidates = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      match (e.ev_phase, e.ev_cat, e.ev_name) with
      | Trace.I, "client", "send" -> add_first idx.send e.ev_id e
      | Trace.I, "client", "deliver" ->
        delivers := e :: !delivers;
        if not (Hashtbl.mem idx.deliver e.ev_id) then begin
          Hashtbl.add idx.deliver e.ev_id e;
          candidates := e.ev_id :: !candidates
        end
      | Trace.I, "broker", "include" ->
        (match
           (Trace.attr_int e.ev_attrs "proposal", Trace.attr_int e.ev_attrs "hop")
         with
         | Some proposal, Some hop -> Hashtbl.add idx.includes e.ev_id (proposal, hop)
         | _ -> ())
      | Trace.I, "broker", "launch" ->
        (match Trace.attr_int e.ev_attrs "reduction" with
         | Some red -> add_first idx.launch e.ev_id (e, red)
         | None -> ())
      | Trace.I, "server", "ordered" ->
        (* The batch is ordered once the first correct server sees it come
           out of the STOB. *)
        (match Hashtbl.find_opt idx.ordered e.ev_id with
         | Some (o : Trace.event) when o.ev_time <= e.ev_time -> ()
         | _ -> Hashtbl.replace idx.ordered e.ev_id e)
      | _ -> ())
    events;
  { idx with delivers = List.rev !delivers; candidates = List.rev !candidates }

let candidates idx = idx.candidates

(* The path behind one client "deliver" instant.  Its "root" names the
   carrying batch (identity key), the batch's launch names the proposal
   (reduction key), and the broker spans and server instants hang off
   those two keys.  The hop boundaries

     send .. distill-begin .. launch .. witness-end .. first-order .. deliver

   telescope, so the hops sum to exactly the end-to-end latency. *)
let path idx (deliver : Trace.event) =
  let key = deliver.ev_id in
  match (Hashtbl.find_opt idx.send key, Trace.attr_int deliver.ev_attrs "root") with
  | Some send, Some batch ->
    Option.bind (Hashtbl.find_opt idx.launch batch)
      (fun ((launch : Trace.event), proposal) ->
        match
          ( Hashtbl.find_opt idx.distill proposal,
            Hashtbl.find_opt idx.witness batch,
            Hashtbl.find_opt idx.ordered batch )
        with
        | Some distill, Some witness, Some (ordered : Trace.event) ->
          (* find_all lists the latest include first. *)
          let inc =
            List.find_opt (fun (p, _) -> p = proposal)
              (Hashtbl.find_all idx.includes key)
          in
          let ctx_verified = inc <> None in
          let inc_hop = match inc with Some (_, h) -> h | None -> 1 in
          let b =
            [| send.ev_time; distill.sp_begin; launch.ev_time; witness.sp_end;
               ordered.ev_time; deliver.ev_time |]
          in
          let hop i actor detail =
            { h_phase = List.nth phases i; h_start = b.(i); h_finish = b.(i + 1);
              h_actor = actor; h_hop = inc_hop + i; h_detail = detail }
          in
          Some
            { p_key = key; p_client = send.ev_actor;
              p_seq = Trace.attr_int send.ev_attrs "seq";
              p_proposal = proposal; p_batch = batch;
              p_send = b.(0); p_deliver = b.(5);
              p_hops =
                [ hop 0 distill.sp_actor
                    (Printf.sprintf
                       "client %d -> broker %d; included in proposal %#x%s"
                       send.ev_actor distill.sp_actor proposal
                       (if ctx_verified then "" else " (no include hop!)"));
                  hop 1 distill.sp_actor
                    (Printf.sprintf
                       "proposal %#x reduced, launched as batch %#x" proposal
                       batch);
                  hop 2 witness.sp_actor
                    (Printf.sprintf "f+1 witness shards aggregated at broker %d"
                       witness.sp_actor);
                  hop 3 ordered.ev_actor
                    (Printf.sprintf
                       "(root, witness) through the STOB; first out at server %d"
                       ordered.ev_actor);
                  hop 4 deliver.ev_actor
                    (Printf.sprintf
                       "delivered server-side; certificate back to client %d"
                       deliver.ev_actor) ];
              p_ctx_verified = ctx_verified }
        | _ -> None)
  | _ -> None

let deliveries idx = List.map (path idx) idx.delivers

let follow idx ~key = Option.bind (Hashtbl.find_opt idx.deliver key) (path idx)

let first idx = List.find_map (fun key -> follow idx ~key) idx.candidates

let e2e p = p.p_deliver -. p.p_send
let hop_sum p = List.fold_left (fun acc h -> acc +. (h.h_finish -. h.h_start)) 0. p.p_hops

let pp ppf p =
  Format.fprintf ppf "message %#x  (client actor %d%s)@." p.p_key p.p_client
    (match p.p_seq with Some s -> Printf.sprintf ", seq %d" s | None -> "");
  Format.fprintf ppf "ctx root %#x, %d hops%s@." p.p_key (List.length p.p_hops)
    (if p.p_ctx_verified then ", context propagation verified"
     else ", WARNING: no matching broker include hop");
  List.iteri
    (fun i h ->
      let indent = String.make (2 * i) ' ' in
      Format.fprintf ppf "%s`- [hop %d] %-12s %8.1f ms  (%.3fs -> %.3fs)  %s@."
        indent h.h_hop h.h_phase
        (1e3 *. (h.h_finish -. h.h_start))
        h.h_start h.h_finish h.h_detail)
    p.p_hops;
  let e = e2e p and s = hop_sum p in
  let delta = if e > 0. then Float.abs (s -. e) /. e *. 100. else 0. in
  Format.fprintf ppf "e2e %.1f ms; hops sum %.1f ms (delta %.2f%%)@." (1e3 *. e)
    (1e3 *. s) delta
