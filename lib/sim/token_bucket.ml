type bucket = { mutable tokens : float; mutable stamp : float }

type 'k t = { rate : float; burst : float; buckets : ('k, bucket) Hashtbl.t }

let create ~rate ~burst = { rate; burst; buckets = Hashtbl.create 16 }

let admit t ~now key =
  t.rate <= 0.
  ||
  let b =
    match Hashtbl.find_opt t.buckets key with
    | Some b -> b
    | None ->
      let b = { tokens = t.burst; stamp = now } in
      Hashtbl.add t.buckets key b;
      b
  in
  b.tokens <- Float.min t.burst (b.tokens +. ((now -. b.stamp) *. t.rate));
  b.stamp <- now;
  b.tokens >= 1.
  && begin
    b.tokens <- b.tokens -. 1.;
    true
  end
