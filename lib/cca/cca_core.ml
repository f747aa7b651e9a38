type ack_event = {
  now : float;
  rtt : float;
  min_rtt : float;
  srtt : float;
  acked : int;
  inflight : int;
  delivery_rate : float;
  app_limited : bool;
  in_recovery : bool;
}

type loss_event = { now : float; inflight : int; by_timeout : bool }

type snapshot = {
  snap_cwnd : float;
  snap_ssthresh : float option;
  snap_pacing : float option;
  snap_mode : string;
}

type t = {
  name : string;
  cwnd : unit -> float;
  pacing_rate : unit -> float option;
  snapshot : unit -> snapshot;
  on_ack : ack_event -> unit;
  on_loss : loss_event -> unit;
}

type params = { mss : int; initial_cwnd : int }

let default_params = { mss = 250; initial_cwnd = 10 }

module Max_filter = struct
  (* Monotonic deque over (timestamp, value): amortized O(1) updates. *)
  type f = { window : float; mutable entries : (float * float) list }

  let create ~window = { window; entries = [] }

  let update f ~now v =
    let alive (t, _) = now -. t <= f.window in
    let rec drop_dominated = function
      | (_, v') :: rest when v' <= v -> drop_dominated rest
      | entries -> entries
    in
    (* entries are newest-first with increasing values towards the tail *)
    f.entries <- (now, v) :: drop_dominated (List.filter alive f.entries)

  let get f =
    List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 f.entries
end
