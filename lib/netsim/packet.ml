type dir = To_client | To_server
type proto = Tcp | Quic

type t = {
  id : int;
  proto : proto;
  dir : dir;
  size : int;
  payload : int;
  seq : int;
  ack : int;
  hole_end : int;
  received_total : int;
  is_ack : bool;
  is_retx : bool;
}

let header_size = function Tcp -> 40 | Quic -> 30

let data proto ~id ~seq ~payload ~retx =
  {
    id;
    proto;
    dir = To_client;
    size = payload + header_size proto;
    payload;
    seq;
    ack = 0;
    hole_end = 0;
    received_total = 0;
    is_ack = false;
    is_retx = retx;
  }

let ack proto ~id ~ack ~hole_end ~received_total =
  {
    id;
    proto;
    dir = To_server;
    size = header_size proto;
    payload = 0;
    seq = 0;
    ack;
    hole_end;
    received_total;
    is_ack = true;
    is_retx = false;
  }

let pp fmt t =
  let dir = match t.dir with To_client -> "->c" | To_server -> "->s" in
  if t.is_ack then Format.fprintf fmt "[%s ack=%d]" dir t.ack
  else Format.fprintf fmt "[%s seq=%d len=%d%s]" dir t.seq t.payload (if t.is_retx then " retx" else "")
