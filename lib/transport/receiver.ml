module Int_map = Map.Make (Int)

type t = {
  sim : Netsim.Sim.t;
  proto : Netsim.Packet.proto;
  ack_every : int;
  ack_delay : float;
  out : Netsim.Packet.t -> unit;
  mutable rcv_nxt : int;
  mutable ooo : int Int_map.t;  (* seq -> payload length of out-of-order data *)
  mutable received_total : int;
  mutable unacked_pkts : int;
  mutable next_ack_id : int;
}

let create sim ~proto ?(ack_every = 1) ?(ack_delay = 0.0) ~out () =
  {
    sim;
    proto;
    ack_every;
    ack_delay;
    out;
    rcv_nxt = 0;
    ooo = Int_map.empty;
    received_total = 0;
    unacked_pkts = 0;
    next_ack_id = 0;
  }

let send_ack t =
  let now = Netsim.Sim.now t.sim in
  (* report the end of the first missing range so the sender can repair
     whole burst losses in one round trip (SACK-style) *)
  let hole_end =
    match Int_map.min_binding_opt t.ooo with Some (seq, _) -> seq | None -> 0
  in
  let pkt =
    Netsim.Packet.ack t.proto ~id:t.next_ack_id ~ack:t.rcv_nxt ~hole_end
      ~received_total:t.received_total ~now ()
  in
  t.next_ack_id <- t.next_ack_id + 1;
  t.unacked_pkts <- 0;
  if t.ack_delay > 0.0 then Netsim.Sim.after t.sim t.ack_delay (fun () -> t.out pkt)
  else t.out pkt

(* absorb any out-of-order data made contiguous by an advance of rcv_nxt *)
let rec drain_ooo t =
  match Int_map.find_opt t.rcv_nxt t.ooo with
  | Some len ->
    t.ooo <- Int_map.remove t.rcv_nxt t.ooo;
    t.rcv_nxt <- t.rcv_nxt + len;
    drain_ooo t
  | None -> ()

let handle_data t (pkt : Netsim.Packet.t) =
  let seq = pkt.seq and len = pkt.payload in
  if seq = t.rcv_nxt then begin
    t.received_total <- t.received_total + len;
    t.rcv_nxt <- t.rcv_nxt + len;
    drain_ooo t;
    t.unacked_pkts <- t.unacked_pkts + 1;
    if t.unacked_pkts >= t.ack_every then send_ack t
  end
  else if seq > t.rcv_nxt then begin
    (* a hole: remember the data, duplicate-ack immediately *)
    if not (Int_map.mem seq t.ooo) then begin
      t.ooo <- Int_map.add seq len t.ooo;
      t.received_total <- t.received_total + len
    end;
    send_ack t
  end
  else
    (* spurious retransmission of old data: re-ack *)
    send_ack t

let bytes_received t = t.rcv_nxt
