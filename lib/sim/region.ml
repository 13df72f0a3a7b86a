type t =
  | Cape_town
  | Sao_paulo
  | Bahrain
  | Canada
  | Frankfurt
  | N_virginia
  | N_california
  | Stockholm
  | Ohio
  | Milan
  | Oregon
  | Ireland
  | London
  | Paris
  | Tokyo
  | Sydney
  | Ovh_gravelines
  | Ovh_beauharnois

let all =
  [ Cape_town; Sao_paulo; Bahrain; Canada; Frankfurt; N_virginia; N_california;
    Stockholm; Ohio; Milan; Oregon; Ireland; London; Paris; Tokyo; Sydney;
    Ovh_gravelines; Ovh_beauharnois ]

(* The 14 regions across which servers are balanced (§6.2).  Order
   matters: §6.2 distributes size-8 systems across the first 8
   regions of this list. *)
let aws_server_regions =
  [ Cape_town; Sao_paulo; Bahrain; Canada; Frankfurt; N_virginia; N_california;
    Stockholm; Ohio; Milan; Oregon; Ireland; London; Paris ]

let server_regions_for n =
  if n <= 0 then invalid_arg "Region.server_regions_for";
  let base = Array.of_list aws_server_regions in
  let k = min n (Array.length base) in
  List.init n (fun i -> base.(i mod k))

let broker_regions = [ Cape_town; Sao_paulo; Tokyo; Sydney; Frankfurt; N_virginia ]

let client_regions = aws_server_regions @ [ Tokyo; Sydney ]

let load_broker_regions = [ Ovh_gravelines; Ovh_beauharnois ]

let coords = function
  | Cape_town -> (-33.9, 18.4)
  | Sao_paulo -> (-23.5, -46.6)
  | Bahrain -> (26.0, 50.5)
  | Canada -> (45.5, -73.6)
  | Frankfurt -> (50.1, 8.7)
  | N_virginia -> (38.9, -77.0)
  | N_california -> (37.4, -122.0)
  | Stockholm -> (59.3, 18.1)
  | Ohio -> (40.0, -83.0)
  | Milan -> (45.5, 9.2)
  | Oregon -> (45.8, -119.7)
  | Ireland -> (53.3, -6.3)
  | London -> (51.5, -0.1)
  | Paris -> (48.9, 2.4)
  | Tokyo -> (35.7, 139.7)
  | Sydney -> (-33.9, 151.2)
  | Ovh_gravelines -> (51.0, 2.1)
  | Ovh_beauharnois -> (45.3, -73.9)

let earth_radius_km = 6371.

let haversine_km a b =
  let lat1, lon1 = coords a and lat2, lon2 = coords b in
  let rad d = d *. Float.pi /. 180. in
  let dlat = rad (lat2 -. lat1) and dlon = rad (lon2 -. lon1) in
  let h =
    (sin (dlat /. 2.) ** 2.)
    +. (cos (rad lat1) *. cos (rad lat2) *. (sin (dlon /. 2.) ** 2.))
  in
  2. *. earth_radius_km *. asin (sqrt h)

(* Speed of light in fibre ~200,000 km/s; real paths are ~40% longer than
   great circles; 0.5 ms covers local hops and processing. *)
let fibre_km_per_s = 200_000.
let route_inflation = 1.4
let local_hop_s = 0.0005

let great_circle_latency a b =
  if a == b then local_hop_s
  else local_hop_s +. (route_inflation *. haversine_km a b /. fibre_km_per_s)

(* Position of each region in [all]: the row and column of [table]. *)
let index = function
  | Cape_town -> 0
  | Sao_paulo -> 1
  | Bahrain -> 2
  | Canada -> 3
  | Frankfurt -> 4
  | N_virginia -> 5
  | N_california -> 6
  | Stockholm -> 7
  | Ohio -> 8
  | Milan -> 9
  | Oregon -> 10
  | Ireland -> 11
  | London -> 12
  | Paris -> 13
  | Tokyo -> 14
  | Sydney -> 15
  | Ovh_gravelines -> 16
  | Ovh_beauharnois -> 17

let count = List.length all

(* Every message crossing the network reads its propagation delay here,
   so the great-circle formula runs once per ordered pair, at start-up. *)
let latency_table =
  let regions = Array.of_list all in
  Array.iteri (fun i r -> assert (index r = i)) regions;
  Array.init (count * count) (fun k ->
      great_circle_latency regions.(k / count) regions.(k mod count))

let latency a b = latency_table.((index a * count) + index b)

let name = function
  | Cape_town -> "af-south-1 (Cape Town)"
  | Sao_paulo -> "sa-east-1 (Sao Paulo)"
  | Bahrain -> "me-south-1 (Bahrain)"
  | Canada -> "ca-central-1 (Canada)"
  | Frankfurt -> "eu-central-1 (Frankfurt)"
  | N_virginia -> "us-east-1 (N. Virginia)"
  | N_california -> "us-west-1 (N. California)"
  | Stockholm -> "eu-north-1 (Stockholm)"
  | Ohio -> "us-east-2 (Ohio)"
  | Milan -> "eu-south-1 (Milan)"
  | Oregon -> "us-west-2 (Oregon)"
  | Ireland -> "eu-west-1 (Ireland)"
  | London -> "eu-west-2 (London)"
  | Paris -> "eu-west-3 (Paris)"
  | Tokyo -> "ap-northeast-1 (Tokyo)"
  | Sydney -> "ap-southeast-2 (Sydney)"
  | Ovh_gravelines -> "OVH (Gravelines)"
  | Ovh_beauharnois -> "OVH (Beauharnois)"

let pp fmt r = Format.pp_print_string fmt (name r)
let equal a b = a == b
