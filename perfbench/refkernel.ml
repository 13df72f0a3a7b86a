(* Host-speed reference: a fixed piece of allocation-heavy OCaml work
   (hash-table churn over fresh strings and lists, then a polymorphic sort)
   that shares no code with the repository.  run.py times it in its own
   process before and after every benchmark process and scales the timed
   metrics by it, so that slow phases of a shared host cancel out.  It links
   nothing from the repository, so a change to the system (or to the GC
   settings it installs) cannot move it.  One untimed pass grows the heap;
   prints the mean wall time of the next three passes, in seconds. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let work () =
  let tbl = Hashtbl.create 4096 in
  for i = 1 to 130_000 do
    Hashtbl.replace tbl (i land 8191) (string_of_int i, [ i; i + 1 ]);
    if i land 3 = 0 then Hashtbl.remove tbl (i * 7 land 8191)
  done;
  let l = List.init 130_000 (fun i -> i * 7919 land 65535) in
  Hashtbl.length tbl + List.hd (List.sort compare l)

let () =
  ignore (Sys.opaque_identity (work ()));
  let t0 = now () in
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (work ()))
  done;
  Printf.printf "%.9f\n" ((now () -. t0) /. 3.)
