type underlay = Sequencer | Pbft | Hotstuff

type 'p msg =
  | Sequencer_msg of 'p Sequencer.msg
  | Pbft_msg of 'p Pbft.msg
  | Hotstuff_msg of 'p Hotstuff.msg

type 'p t =
  | Sequencer_replica of ('p, 'p msg) Sequencer.t
  | Pbft_replica of ('p, 'p msg) Pbft.t
  | Hotstuff_replica of ('p, 'p msg) Hotstuff.t

let create underlay ~engine ~self ~n ?cpu ~send ~deliver ~payload_bytes
    ?(batch_max = 400) ?batch_timeout ?(max_outstanding = max_int) () =
  let replica wrap =
    Replica.create ~engine ~self ~n ?cpu ~wrap ~send ~deliver ~payload_bytes ()
  in
  let batch_timeout default = Option.value batch_timeout ~default in
  match underlay with
  | Sequencer -> Sequencer_replica (Sequencer.create (replica (fun m -> Sequencer_msg m)))
  | Pbft ->
    Pbft_replica
      (Pbft.create (replica (fun m -> Pbft_msg m)) ~batch_max
         ~batch_timeout:(batch_timeout 0.05) ~max_outstanding)
  | Hotstuff ->
    Hotstuff_replica
      (Hotstuff.create (replica (fun m -> Hotstuff_msg m)) ~batch_max
         ~batch_timeout:(batch_timeout 0.3))

let broadcast = function
  | Sequencer_replica s -> Sequencer.broadcast s
  | Pbft_replica s -> Pbft.broadcast s
  | Hotstuff_replica s -> Hotstuff.broadcast s

let receive t ~src m =
  match (t, m) with
  | Sequencer_replica s, Sequencer_msg m -> Sequencer.receive s ~src m
  | Pbft_replica s, Pbft_msg m -> Pbft.receive s ~src m
  | Hotstuff_replica s, Hotstuff_msg m -> Hotstuff.receive s ~src m
  | _ -> invalid_arg "Stob.receive: message of another underlay"

let crash = function
  | Sequencer_replica s -> Sequencer.crash s
  | Pbft_replica s -> Pbft.crash s
  | Hotstuff_replica s -> Hotstuff.crash s

let recover = function
  | Sequencer_replica s -> Sequencer.recover s
  | Pbft_replica s -> Pbft.recover s
  | Hotstuff_replica s -> Hotstuff.recover s

let cursor = function
  | Sequencer_replica s -> Sequencer.cursor s
  | Pbft_replica s -> Pbft.cursor s
  | Hotstuff_replica s -> Hotstuff.cursor s

let resume_at t ~cursor =
  match t with
  | Sequencer_replica s -> Sequencer.resume_at s ~cursor
  | Pbft_replica s -> Pbft.resume_at s ~cursor
  | Hotstuff_replica s -> Hotstuff.resume_at s ~cursor

let delivered_count = function
  | Sequencer_replica s -> Sequencer.delivered_count s
  | Pbft_replica s -> Pbft.delivered_count s
  | Hotstuff_replica s -> Hotstuff.delivered_count s
