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

module Gauge = struct
  type t = { mutable v : float }

  let make () = { v = 0. }
  let set t x = t.v <- x
  let add t x = t.v <- t.v +. x
  let value t = t.v
end

type probe_kind =
  | P_gauge
  | P_rate of { mutable prev_t : float; mutable prev_v : float }

type probe = {
  pr_name : string;
  pr_labels : labels;
  pr_f : unit -> float;
  pr_kind : probe_kind;
  pr_gauge : Gauge.t;
  mutable pr_points : (float * float) list; (* newest first *)
}

type t = {
  period : float;
  counters : (string * labels, Trace.Counter.t) Hashtbl.t;
  gauges : (string * labels, Gauge.t) Hashtbl.t;
  hists : (string * labels, Trace.Hist.t) Hashtbl.t;
  mutable probes : probe list; (* newest first *)
  mutable tick_times : float list; (* newest first *)
  mutable n_ticks : int;
  mutable mirror : (Trace.Sink.t * int) option;
}

let create ?(period = 0.5) () =
  if not (period > 0.) then invalid_arg "Metrics.create: period must be positive";
  { period;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    probes = [];
    tick_times = [];
    n_ticks = 0;
    mirror = None }

let period t = t.period

let intern tbl make ~labels name =
  let key = (name, canon labels) in
  match Hashtbl.find_opt tbl key with
  | Some x -> x
  | None ->
    let x = make () in
    Hashtbl.add tbl key x;
    x

let counter t ?(labels = []) name = intern t.counters Trace.Counter.make ~labels name
let gauge t ?(labels = []) name = intern t.gauges Gauge.make ~labels name
let histogram t ?(labels = []) name = intern t.hists Trace.Hist.create ~labels name

let add_probe t ~labels name f kind =
  let labels = canon labels in
  let pr =
    { pr_name = name; pr_labels = labels; pr_f = f; pr_kind = kind;
      pr_gauge = gauge t ~labels name; pr_points = [] }
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
      Gauge.set pr.pr_gauge v;
      pr.pr_points <- (now, v) :: pr.pr_points;
      match t.mirror with
      | Some (sink, actor) ->
        Trace.count sink ~now ~actor ~cat:"metrics"
          ~name:(label_string pr.pr_name pr.pr_labels) v
      | None -> ())
    (List.rev t.probes)

let ticks t = t.n_ticks
let tick_times t = Array.of_list (List.rev t.tick_times)

type value =
  | V_counter of int
  | V_gauge of float
  | V_hist of Trace.Hist.summary

type entry = { m_name : string; m_labels : labels; m_value : value }

let snapshot t =
  let entries = ref [] in
  Hashtbl.iter
    (fun (name, labels) c ->
      entries :=
        { m_name = name; m_labels = labels; m_value = V_counter (Trace.Counter.value c) }
        :: !entries)
    t.counters;
  Hashtbl.iter
    (fun (name, labels) g ->
      entries :=
        { m_name = name; m_labels = labels; m_value = V_gauge (Gauge.value g) }
        :: !entries)
    t.gauges;
  Hashtbl.iter
    (fun (name, labels) h ->
      entries :=
        { m_name = name; m_labels = labels;
          m_value = V_hist (Trace.Hist.summary h) }
        :: !entries)
    t.hists;
  List.sort compare !entries

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

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let kind_of = function
  | V_counter _ -> "counter"
  | V_gauge _ -> "gauge"
  | V_hist _ -> "hist"

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let entry_json e =
  let base =
    [ ("kind", Json.Str (kind_of e.m_value));
      ("name", Json.Str e.m_name);
      ("labels", labels_json e.m_labels) ]
  in
  let rest =
    match e.m_value with
    | V_counter n -> [ ("value", Json.Num (float_of_int n)) ]
    | V_gauge v -> [ ("value", Json.Num v) ]
    | V_hist h ->
      [ ("count", Json.Num (float_of_int h.h_count));
        ("sum", Json.Num h.h_sum);
        ("mean", Json.Num h.h_mean);
        ("min", Json.Num h.h_min);
        ("max", Json.Num h.h_max);
        ("p50", Json.Num h.h_p50);
        ("p90", Json.Num h.h_p90);
        ("p99", Json.Num h.h_p99) ]
  in
  Json.Obj (base @ rest)

let series_json s =
  Json.Obj
    [ ("kind", Json.Str "series");
      ("name", Json.Str s.s_name);
      ("labels", labels_json s.s_labels);
      ("points",
       Json.List
         (Array.to_list s.s_points
          |> List.map (fun (ts, v) -> Json.List [ Json.Num ts; Json.Num v ]))) ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (entry_json e));
      Buffer.add_char buf '\n')
    (snapshot t);
  List.iter
    (fun s ->
      Buffer.add_string buf (Json.to_string (series_json s));
      Buffer.add_char buf '\n')
    (series t);
  Buffer.contents buf

let csv_cell v =
  (* Full precision, but integers stay readable. *)
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let series_csv t =
  let all = series t in
  let times = tick_times t in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time";
  List.iter
    (fun s ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (label_string s.s_name s.s_labels))
    all;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i ts ->
      Buffer.add_string buf (csv_cell ts);
      List.iter
        (fun s ->
          Buffer.add_char buf ',';
          if i < Array.length s.s_points then
            Buffer.add_string buf (csv_cell (snd s.s_points.(i))))
        all;
      Buffer.add_char buf '\n')
    times;
  Buffer.contents buf

let pp_table ppf t =
  let snap = snapshot t in
  let counters = List.filter (fun e -> match e.m_value with V_counter _ -> true | _ -> false) snap in
  let gauges = List.filter (fun e -> match e.m_value with V_gauge _ -> true | _ -> false) snap in
  let hists = List.filter (fun e -> match e.m_value with V_hist _ -> true | _ -> false) snap in
  let name e = label_string e.m_name e.m_labels in
  let width =
    List.fold_left (fun acc e -> Stdlib.max acc (String.length (name e))) 24 snap
  in
  if counters <> [] then begin
    Format.fprintf ppf "  counters@.";
    List.iter
      (fun e ->
        match e.m_value with
        | V_counter n -> Format.fprintf ppf "    %-*s %d@." width (name e) n
        | _ -> ())
      counters
  end;
  if gauges <> [] then begin
    Format.fprintf ppf "  gauges (last sample)@.";
    List.iter
      (fun e ->
        match e.m_value with
        | V_gauge v -> Format.fprintf ppf "    %-*s %.6g@." width (name e) v
        | _ -> ())
      gauges
  end;
  if hists <> [] then begin
    Format.fprintf ppf "  histograms%-*s count      mean       p50       p90       p99       max@."
      (Stdlib.max 0 (width - 8)) "";
    List.iter
      (fun e ->
        match e.m_value with
        | V_hist h ->
          Format.fprintf ppf "    %-*s %-10d %-10.4g %-9.4g %-9.4g %-9.4g %-9.4g@."
            width (name e) h.h_count h.h_mean h.h_p50 h.h_p90 h.h_p99 h.h_max
        | _ -> ())
      hists
  end;
  let all_series = series t in
  if all_series <> [] then begin
    Format.fprintf ppf "  series (%d ticks, period %gs)%-*s min        mean       max@."
      t.n_ticks t.period (Stdlib.max 0 (width - 25)) "";
    List.iter
      (fun s ->
        let n = Array.length s.s_points in
        if n = 0 then
          Format.fprintf ppf "    %-*s (empty)@." width (label_string s.s_name s.s_labels)
        else begin
          let lo = ref infinity and hi = ref neg_infinity and sum = ref 0. in
          Array.iter
            (fun (_, v) ->
              if v < !lo then lo := v;
              if v > !hi then hi := v;
              sum := !sum +. v)
            s.s_points;
          Format.fprintf ppf "    %-*s %-10.4g %-10.4g %-10.4g@." width
            (label_string s.s_name s.s_labels)
            !lo (!sum /. float_of_int n) !hi
        end)
      all_series
  end
