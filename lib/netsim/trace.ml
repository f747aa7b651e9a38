type view =
  | Tcp_view of { seq : int; payload : int; ack : int; is_ack : bool }
  | Opaque

type obs = { time : float; dir : Packet.dir; size : int; view : view }

(* One growable column per field, so recording a packet allocates
   nothing. [flags] packs the direction and the view kind per packet. *)
type t = {
  mutable times : float array;
  mutable sizes : int array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable acks : int array;
  mutable flags : Bytes.t;
  mutable count : int;
}

let to_server_bit = 1
let opaque_bit = 2
let ack_bit = 4

let create ?(capacity = 0) () =
  {
    times = Array.make capacity 0.0;
    sizes = Array.make capacity 0;
    seqs = Array.make capacity 0;
    payloads = Array.make capacity 0;
    acks = Array.make capacity 0;
    flags = Bytes.make capacity '\000';
    count = 0;
  }

let grow t =
  let cap = max 1024 (2 * t.count) in
  let resize column zero =
    let column' = Array.make cap zero in
    Array.blit column 0 column' 0 t.count;
    column'
  in
  t.times <- resize t.times 0.0;
  t.sizes <- resize t.sizes 0;
  t.seqs <- resize t.seqs 0;
  t.payloads <- resize t.payloads 0;
  t.acks <- resize t.acks 0;
  t.flags <- Bytes.extend t.flags 0 (cap - t.count)

let push t ~time ~dir ~size ~opaque ~seq ~payload ~ack ~is_ack =
  if t.count = Array.length t.times then grow t;
  let i = t.count in
  t.times.(i) <- time;
  t.sizes.(i) <- size;
  t.seqs.(i) <- seq;
  t.payloads.(i) <- payload;
  t.acks.(i) <- ack;
  Bytes.set t.flags i
    (Char.chr
       ((match dir with Packet.To_client -> 0 | Packet.To_server -> to_server_bit)
       lor (if opaque then opaque_bit else 0)
       lor if is_ack then ack_bit else 0));
  t.count <- i + 1

let record t ~now (pkt : Packet.t) =
  match pkt.proto with
  | Packet.Quic ->
    push t ~time:now ~dir:pkt.dir ~size:pkt.size ~opaque:true ~seq:0 ~payload:0 ~ack:0
      ~is_ack:false
  | Packet.Tcp ->
    push t ~time:now ~dir:pkt.dir ~size:pkt.size ~opaque:false ~seq:pkt.seq
      ~payload:pkt.payload ~ack:pkt.ack ~is_ack:pkt.is_ack

let length t = t.count

let check t i =
  if i < 0 || i >= t.count then invalid_arg "Trace: observation index out of range"

let flag t i bit =
  check t i;
  Char.code (Bytes.get t.flags i) land bit <> 0

let times t = Array.sub t.times 0 t.count
let size t i = check t i; t.sizes.(i)
let dir t i = if flag t i to_server_bit then Packet.To_server else Packet.To_client
let opaque t i = flag t i opaque_bit
let is_ack t i = flag t i ack_bit
let seq t i = check t i; t.seqs.(i)
let payload t i = check t i; t.payloads.(i)
let ack t i = check t i; t.acks.(i)

let duration t = if t.count < 2 then 0.0 else t.times.(t.count - 1) -. t.times.(0)

let observations t =
  List.init t.count (fun i ->
      let view =
        if opaque t i then Opaque
        else Tcp_view { seq = seq t i; payload = payload t i; ack = ack t i; is_ack = is_ack t i }
      in
      { time = t.times.(i); dir = dir t i; size = size t i; view })

let of_observations obs =
  let t = create () in
  List.iter
    (fun o ->
      match o.view with
      | Opaque ->
        push t ~time:o.time ~dir:o.dir ~size:o.size ~opaque:true ~seq:0 ~payload:0 ~ack:0
          ~is_ack:false
      | Tcp_view { seq; payload; ack; is_ack } ->
        push t ~time:o.time ~dir:o.dir ~size:o.size ~opaque:false ~seq ~payload ~ack ~is_ack)
    obs;
  t
