(* Correctness of one run, judged from what each server handed its
   application: every correct server must deliver the identical sequence,
   and no (client, payload) pair may be delivered twice. *)

module Proto = Repro_chopchop.Proto

type digest = { mutable count : int; mutable hash : int }
(* Messages delivered and an order-sensitive hash of them. *)

let digest () = { count = 0; hash = 0 }

let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

let add d (del : Proto.delivery) =
  match del with
  | Proto.Ops ops ->
    Array.iter
      (fun (id, msg) -> d.hash <- mix (mix d.hash id) (Hashtbl.hash msg))
      ops;
    d.count <- d.count + Array.length ops
  | Proto.Bulk { first_id; count; tag; msg_bytes } ->
    d.hash <- mix (mix (mix (mix d.hash first_id) count) tag) msg_bytes;
    d.count <- d.count + count

let agree digests =
  Array.for_all
    (fun d -> d.count = digests.(0).count && d.hash = digests.(0).hash)
    digests

(* Repeated (client, payload) pairs in one server's delivery log.  A dense
   range stands for the messages [Batch.dense_message] derives from its
   round tag, so two ranges with one tag repeat wherever their ids
   overlap (ids are non-negative). *)
let duplicates (log : Proto.delivery list) =
  let seen = Hashtbl.create 4096 and ranges = Hashtbl.create 64 in
  let dups = ref 0 in
  List.iter
    (function
      | Proto.Ops ops ->
        Array.iter
          (fun key ->
            if Hashtbl.mem seen key then incr dups
            else Hashtbl.add seen key ())
          ops
      | Proto.Bulk { first_id; count; tag; _ } ->
        let prev = Option.value (Hashtbl.find_opt ranges tag) ~default:[] in
        Hashtbl.replace ranges tag ((first_id, count) :: prev))
    log;
  Hashtbl.iter
    (fun _ rs ->
      let sorted = List.sort compare rs in
      ignore
        (List.fold_left
           (fun reach (first, count) ->
             dups := !dups + max 0 (min reach (first + count) - first);
             max reach (first + count))
           0 sorted))
    ranges;
  !dups
