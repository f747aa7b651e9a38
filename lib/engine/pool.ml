(* One worker per core: the caller is worker 0, so no core idles in a
   join. *)
let default_jobs () = Domain.recommended_domain_count ()

(* Shard s of n jobs over w workers owns indices { s, s+w, s+2w, ... }:
   round-robin interleaving keeps shards balanced even when job cost
   correlates with index (a census sorted by site rank, say). A claim is
   one fetch-and-add on the shard's cursor; position p maps back to the
   global index s + p*w. *)
let shard_size ~n ~workers s = if s >= n then 0 else ((n - s - 1) / workers) + 1

(* Task tracing (Obs.Pooltrace reads it back): while the runtime is
   armed, each task runs inside a pool.task span carrying which task it
   was, who ran it and when its run was submitted. *)
let traced ~worker ~stolen ~workers ~t_submit f i x =
  let attrs =
    [
      ("index", float_of_int i);
      ("shard", float_of_int (i mod workers));
      ("worker", float_of_int worker);
      ("stolen", if stolen then 1.0 else 0.0);
      ("submit", t_submit);
    ]
  in
  Obs.Span.with_ ~attrs ~name:Obs.Pooltrace.task_name (fun () -> f x)

(* The one scheduling path. The calling domain is worker 0 and spawns
   the other [workers - 1]: OCaml 5 minor collections stop every domain,
   so a caller parked in [Domain.join] would make each of them wait on a
   domain that does no work. At one worker nothing is spawned and the
   caller runs every job in index order. *)
let run ?emit ?jobs f xs =
  let n = Array.length xs in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let workers = max 1 (min jobs n) in
  let results = Array.make n None in
  let errors = Array.make n None in
  let ready = Array.init n (fun _ -> Atomic.make false) in
  let cursors = Array.init workers (fun _ -> Atomic.make 0) in
  (* set once [emit] raises: no job starts after that, at any worker
     count, so a failing store stops the campaign at its next claim *)
  let stop = Atomic.make false in
  let trace_on = Obs.Runtime.armed () in
  let t_submit = if trace_on then Unix.gettimeofday () else 0.0 in
  let claim s =
    if Atomic.get stop then None
    else
      let pos = Atomic.fetch_and_add cursors.(s) 1 in
      if pos < shard_size ~n ~workers s then Some (s + (pos * workers)) else None
  in
  let run_one ~worker ~stolen i =
    (match
       if trace_on then traced ~worker ~stolen ~workers ~t_submit f i xs.(i) else f xs.(i)
     with
    | y -> results.(i) <- Some y
    | exception e -> errors.(i) <- Some e);
    (* publish: the Atomic.set orders the plain result write before any
       reader that observes [ready], so the caller may emit results.(i)
       without a lock once the flag is up *)
    Atomic.set ready.(i) true
  in
  (* Emit the ready prefix in canonical index order: job i only once
     every job < i has been emitted, so the emission order never depends
     on scheduling. Only the caller calls this. *)
  let next = ref 0 in
  let emit_error = ref None in
  let flush () =
    match emit with
    | Some emit when Option.is_none !emit_error -> (
      try
        while !next < n && Atomic.get ready.(!next) do
          (match results.(!next) with
          | Some y -> emit !next y
          | None -> () (* errored job: nothing to emit, exception re-raised below *));
          incr next
        done
      with e ->
        emit_error := Some e;
        Atomic.set stop true)
    | _ -> ()
  in
  (* Worker w runs [first], drains the rest of its own shard, then
     steals from the others; [after] runs after each of its jobs. *)
  let work ?(after = ignore) w first =
    let rec drain s stolen = function
      | Some i ->
        run_one ~worker:w ~stolen i;
        after ();
        drain s stolen (claim s)
      | None -> ()
    in
    drain w false first;
    for s = 0 to workers - 1 do
      if s <> w then drain s true (claim s)
    done
  in
  (* The caller claims its first job before any worker exists, so job 0
     always runs in the calling domain. Each spawned worker inherits the
     caller's obs state and hands its buffers back at join. *)
  let first = claim 0 in
  let spawned =
    Array.init (workers - 1) (fun w ->
        Obs.Collector.spawn (fun () -> work (w + 1) (claim (w + 1))))
  in
  work ~after:flush 0 first;
  Array.iter Obs.Collector.join spawned;
  (* every worker is joined before an [emit] error is re-raised; then
     the tail the others finished after the caller ran out of claims *)
  flush ();
  Option.iter raise !emit_error;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.map (function Some y -> y | None -> assert false) results

let map ?jobs f xs = run ?jobs f xs
let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))
let map_stream ?jobs ~emit f xs = run ?jobs ~emit f xs
