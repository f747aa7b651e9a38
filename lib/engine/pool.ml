let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* Shard s of n jobs over w workers owns indices { s, s+w, s+2w, ... }:
   round-robin interleaving keeps shards balanced even when job cost
   correlates with index (a census sorted by site rank, say). A claim is
   one fetch-and-add on the shard's cursor; position p maps back to the
   global index s + p*w. *)
let shard_size ~n ~workers s = if s >= n then 0 else ((n - s - 1) / workers) + 1

(* Task-lifecycle tracing (Obs.Pooltrace): when the caller has tracing
   on, each task is stamped around [f]. When tracing is off the per-task
   cost is one captured-bool branch — the clock is never read. *)
let run_traced ~worker ~stolen ~workers ~t_submit f i x =
  let t0 = Unix.gettimeofday () in
  let r = (match f x with y -> Ok y | exception e -> Error e) in
  let t1 = Unix.gettimeofday () in
  Obs.Pooltrace.record ~index:i ~shard:(i mod workers) ~worker ~stolen ~t_submit ~t0 ~t1;
  r

let parallel_map ?emit ~workers f xs =
  let n = Array.length xs in
  let results = Array.make n None in
  let errors = Array.make n None in
  let ready = Array.init n (fun _ -> Atomic.make false) in
  let cursors = Array.init workers (fun _ -> Atomic.make 0) in
  let steals = Atomic.make 0 in
  let trace_on = Obs.Pooltrace.enabled () in
  let t_submit = if trace_on then Obs.Pooltrace.on_run ~jobs:n ~workers else 0.0 in
  let claim s =
    let pos = Atomic.fetch_and_add cursors.(s) 1 in
    if pos < shard_size ~n ~workers s then Some (s + (pos * workers)) else None
  in
  let run ~worker ~stolen i =
    (if trace_on then
       match run_traced ~worker ~stolen ~workers ~t_submit f i xs.(i) with
       | Ok y -> results.(i) <- Some y
       | Error e -> errors.(i) <- Some e
     else
       match f xs.(i) with
       | y -> results.(i) <- Some y
       | exception e -> errors.(i) <- Some e);
    (* publish: the Atomic.set orders the plain result write before any
       reader that observes [ready], so the streaming loop below may read
       results.(i) without a lock once the flag is up *)
    Atomic.set ready.(i) true
  in
  let worker w () =
    let rec drain s stolen =
      match claim s with
      | Some i ->
        if stolen then Atomic.incr steals;
        run ~worker:w ~stolen i;
        drain s stolen
      | None -> ()
    in
    drain w false;
    for s = 0 to workers - 1 do
      if s <> w then drain s true
    done
  in
  (* each worker inherits the caller's obs state and hands its buffers
     back at join *)
  let domains = Array.init workers (fun w -> Obs.Collector.spawn (worker w)) in
  (* stream completed results to the caller in canonical index order while
     workers are still running: emit job i only once every job < i has been
     emitted, so the emission order never depends on scheduling *)
  (match emit with
  | None -> ()
  | Some emit ->
    let next = ref 0 in
    while !next < n do
      if Atomic.get ready.(!next) then begin
        (match results.(!next) with
        | Some y -> emit !next y
        | None -> () (* errored job: nothing to emit, exception re-raised below *));
        incr next
      end
      else Domain.cpu_relax ()
    done);
  Array.iter Obs.Collector.join domains;
  Obs.Metrics.bump ~by:n "engine.pool.jobs";
  Obs.Metrics.bump ~by:workers "engine.pool.workers";
  Obs.Metrics.bump ~by:(Atomic.get steals) "engine.pool.steals";
  Obs.Metrics.bump ~by:(n - Atomic.get steals) "engine.pool.local_pops";
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.map (function Some y -> y | None -> assert false) results

(* The serial paths trace too (worker 0, shard 0, no steals), so a
   jobs=1 run still yields a complete trace with the same task count
   and index coverage as any parallel run. *)
let serial_map ?emit f xs =
  let n = Array.length xs in
  let trace_on = Obs.Pooltrace.enabled () in
  let t_submit = if trace_on then Obs.Pooltrace.on_run ~jobs:n ~workers:1 else 0.0 in
  let results = Array.make n None in
  let errors = Array.make n None in
  for i = 0 to n - 1 do
    if trace_on then (
      match run_traced ~worker:0 ~stolen:false ~workers:1 ~t_submit f i xs.(i) with
      | Ok y ->
        results.(i) <- Some y;
        (match emit with Some emit -> emit i y | None -> ())
      | Error e -> errors.(i) <- Some e)
    else
      match f xs.(i) with
      | y ->
        results.(i) <- Some y;
        (match emit with Some emit -> emit i y | None -> ())
      | exception e -> errors.(i) <- Some e
  done;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.map (function Some y -> y | None -> assert false) results

let map ?jobs f xs =
  let n = Array.length xs in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let workers = min jobs n in
  if workers <= 1 then serial_map f xs else parallel_map ~workers f xs

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))

let map_stream ?jobs ~emit f xs =
  let n = Array.length xs in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let workers = min jobs n in
  if workers <= 1 then serial_map ~emit f xs
  else parallel_map ~emit ~workers f xs
