module Trace = Repro_trace.Trace

type labels = (string * string) list

let canon (labels : labels) : labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let label_string name (labels : labels) =
  match labels with
  | [] -> name
  | _ ->
    let canon = List.sort compare labels in
    let fields = List.map (fun (k, v) -> k ^ "=" ^ v) canon in
    name ^ "{" ^ String.concat "," fields ^ "}"

type probe_kind =
  | P_gauge
  | P_rate of { mutable prev_t : float; mutable prev_v : float }

type probe = {
  pr_name : string;
  pr_labels : labels;
  pr_f : unit -> float;
  pr_kind : probe_kind;
  mutable pr_points : (float * float) list; (* newest first *)
}

type t = {
  period : float;
  mutable probes : probe list; (* newest first *)
  mutable tick_times : float list; (* newest first *)
  mutable n_ticks : int;
  mutable mirror : (Trace.Sink.t * int) option;
}

let create ?(period = 0.5) () =
  if not (period > 0.) then invalid_arg "Metrics.create: period must be positive";
  { period; probes = []; tick_times = []; n_ticks = 0; mirror = None }

let period t = t.period

let add_probe t ~labels name f kind =
  let pr =
    { pr_name = name; pr_labels = canon labels; pr_f = f; pr_kind = kind;
      pr_points = [] }
  in
  t.probes <- pr :: t.probes

let probe t ?(labels = []) name f = add_probe t ~labels name f P_gauge

let rate_probe t ?(labels = []) name f =
  add_probe t ~labels name f (P_rate { prev_t = 0.; prev_v = f () })

let mirror t ~sink ~actor = t.mirror <- Some (sink, actor)

let sample t ~now =
  t.tick_times <- now :: t.tick_times;
  t.n_ticks <- t.n_ticks + 1;
  List.iter
    (fun pr ->
      let raw = pr.pr_f () in
      let v =
        match pr.pr_kind with
        | P_gauge -> raw
        | P_rate r ->
          let dt = now -. r.prev_t in
          let rate = if dt > 0. then (raw -. r.prev_v) /. dt else 0. in
          r.prev_t <- now;
          r.prev_v <- raw;
          rate
      in
      pr.pr_points <- (now, v) :: pr.pr_points;
      match t.mirror with
      | Some (sink, actor) ->
        Trace.count sink ~now ~actor ~cat:"metrics"
          ~name:(label_string pr.pr_name pr.pr_labels) v
      | None -> ())
    (List.rev t.probes)

let ticks t = t.n_ticks
let tick_times t = Array.of_list (List.rev t.tick_times)

type series = {
  s_name : string;
  s_labels : labels;
  s_points : (float * float) array;
}

let series t =
  List.rev_map
    (fun pr ->
      { s_name = pr.pr_name; s_labels = pr.pr_labels;
        s_points = Array.of_list (List.rev pr.pr_points) })
    t.probes
