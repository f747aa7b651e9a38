type ack_sample = {
  mutable now : float;
  mutable rtt : float;
  mutable min_rtt : float;
  mutable srtt : float;
  mutable delivery_rate : float;
}

type ack_event = {
  sample : ack_sample;
  mutable acked : int;
  mutable inflight : int;
  mutable app_limited : bool;
  mutable in_recovery : bool;
}

let fresh_ack_event () =
  {
    sample = { now = 0.0; rtt = 0.0; min_rtt = 0.0; srtt = 0.0; delivery_rate = 0.0 };
    acked = 0;
    inflight = 0;
    app_limited = false;
    in_recovery = false;
  }

type loss_event = { now : float; inflight : int; by_timeout : bool }

type snapshot = Obs.Flight.cca_reading = {
  mutable snap_cwnd : float;
  mutable snap_ssthresh : float;
  mutable snap_pacing : float;
}

let fresh_snapshot () = { snap_cwnd = 0.0; snap_ssthresh = -1.0; snap_pacing = -1.0 }

type t = {
  name : string;
  cwnd : unit -> float;
  pacing_rate : unit -> float option;
  snapshot : snapshot -> string;
  on_ack : ack_event -> unit;
  on_loss : loss_event -> unit;
}

type params = { mss : int; initial_cwnd : int }

let default_params = { mss = 250; initial_cwnd = 10 }

module Max_filter = struct
  (* A monotonic deque over (timestamp, value) in two ring columns, oldest
     at [head]. Values strictly decrease from oldest to newest: an update
     first drops the entries that left the window (a prefix, since times
     never decrease), then the newest entries its value dominates, so the
     oldest live entry is the maximum. Amortized O(1), allocation-free
     once the columns have grown. *)
  type f = {
    window : float;
    mutable times : float array;
    mutable values : float array;
    mutable head : int;
    mutable len : int;
  }

  let create ~window =
    { window; times = Array.make 8 0.0; values = Array.make 8 0.0; head = 0; len = 0 }

  let grow f =
    let cap = Array.length f.times in
    let times = Array.make (2 * cap) 0.0 and values = Array.make (2 * cap) 0.0 in
    for k = 0 to f.len - 1 do
      let i = (f.head + k) land (cap - 1) in
      times.(k) <- f.times.(i);
      values.(k) <- f.values.(i)
    done;
    f.times <- times;
    f.values <- values;
    f.head <- 0

  let update f ~now v =
    let mask = Array.length f.times - 1 in
    while f.len > 0 && not (now -. f.times.(f.head) <= f.window) do
      f.head <- (f.head + 1) land mask;
      f.len <- f.len - 1
    done;
    while f.len > 0 && f.values.((f.head + f.len - 1) land mask) <= v do
      f.len <- f.len - 1
    done;
    if f.len = Array.length f.times then grow f;
    let i = (f.head + f.len) land (Array.length f.times - 1) in
    f.times.(i) <- now;
    f.values.(i) <- v;
    f.len <- f.len + 1

  let get f = if f.len = 0 then 0.0 else Float.max 0.0 f.values.(f.head)
end
