type root = string

(* levels.(0) is the leaf-hash level; the last level is the singleton root.
   Odd nodes are promoted unchanged, so level l has ceil(n / 2^l) nodes. *)
type t = { levels : string array array }

type proof = { index : int; path : (bool * string) list }
(* Each path element is (sibling_is_left, sibling_hash), leaf to root. *)

let hash_leaf leaf = Sha256.digest_tagged '\x00' leaf ""

let hash_node l r = Sha256.digest_tagged '\x01' l r

let build leaves =
  if Array.length leaves = 0 then invalid_arg "Merkle.build: empty leaf vector";
  let rec up acc level =
    let n = Array.length level in
    if n = 1 then List.rev (level :: acc)
    else begin
      let parent = Array.make ((n + 1) / 2) "" in
      for i = 0 to (n / 2) - 1 do
        parent.(i) <- hash_node level.(2 * i) level.((2 * i) + 1)
      done;
      if n land 1 = 1 then parent.((n - 1) / 2) <- level.(n - 1);
      up (level :: acc) parent
    end
  in
  let leaf_level = Array.map hash_leaf leaves in
  { levels = Array.of_list (up [] leaf_level) }

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  top.(0)

let leaf_count t = Array.length t.levels.(0)

let prove t index =
  if index < 0 || index >= leaf_count t then invalid_arg "Merkle.prove: index out of range";
  let path = ref [] in
  let i = ref index in
  for l = 0 to Array.length t.levels - 2 do
    let level = t.levels.(l) in
    let n = Array.length level in
    let sib = if !i land 1 = 1 then !i - 1 else !i + 1 in
    (* A promoted odd node has no sibling at this level. *)
    if sib < n then path := ((!i land 1 = 1), level.(sib)) :: !path;
    i := !i / 2
  done;
  { index; path = List.rev !path }

let verify root_hash ~leaf { index = _; path } =
  let h =
    List.fold_left
      (fun h (sibling_is_left, sib) ->
        if sibling_is_left then hash_node sib h else hash_node h sib)
      (hash_leaf leaf) path
  in
  String.equal h root_hash

let proof_equal p q =
  p.index = q.index
  && List.equal
       (fun (l, h) (l', h') -> Bool.equal l l' && String.equal h h')
       p.path q.path

let proof_index p = p.index
let proof_length p = List.length p.path
let proof_size_bytes p = (32 * List.length p.path) + 8

let root_equal = String.equal
