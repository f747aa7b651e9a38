(* The pool scheduler report: a pure function of the pool.task spans that
   Engine.Pool opens while the runtime is armed. See pooltrace.mli. *)

type task = {
  index : int;
  shard : int;
  worker : int;
  stolen : bool;
  t_submit : float;
  t_start : float;
  t_finish : float;
}

let task_name = "pool.task"

let tasks spans =
  List.filter_map
    (fun (c : Span.completed) ->
      let a k = Option.value ~default:0.0 (List.assoc_opt k c.Span.attrs) in
      if c.Span.name <> task_name then None
      else
        Some
          {
            index = int_of_float (a "index");
            shard = int_of_float (a "shard");
            worker = int_of_float (a "worker");
            stolen = a "stolen" <> 0.0;
            t_submit = a "submit";
            t_start = c.Span.wall_start;
            t_finish = c.Span.wall_start +. c.Span.wall_s;
          })
    spans

type domain_stat = {
  d_worker : int;
  d_tasks : int;
  d_stolen : int;
  d_busy_s : float;
  d_busy_frac : float;
}

type summary = {
  s_start : float;
  s_workers : int;
  s_tasks : int;
  s_steals : int;
  s_span_s : float;
  s_wait_us : Histogram.t;
  s_run_us : Histogram.t;
  s_domains : domain_stat list;
}

let summarize tasks =
  let wait = Histogram.create ~name:"pool.queue_wait_us" () in
  let run = Histogram.create ~name:"pool.run_us" () in
  let lo = ref infinity and hi = ref neg_infinity and steals = ref 0 in
  let per_domain = Hashtbl.create 8 in
  List.iter
    (fun t ->
      Histogram.observe wait ((t.t_start -. t.t_submit) *. 1e6);
      Histogram.observe run ((t.t_finish -. t.t_start) *. 1e6);
      if t.t_submit < !lo then lo := t.t_submit;
      if t.t_finish > !hi then hi := t.t_finish;
      if t.stolen then incr steals;
      let tasks, stolen, busy =
        Option.value ~default:(0, 0, 0.0) (Hashtbl.find_opt per_domain t.worker)
      in
      Hashtbl.replace per_domain t.worker
        (tasks + 1, (stolen + if t.stolen then 1 else 0), busy +. t.t_finish -. t.t_start))
    tasks;
  let span = if !hi > !lo then !hi -. !lo else 0.0 in
  let domains =
    Hashtbl.fold
      (fun w (tasks, stolen, busy) acc ->
        {
          d_worker = w;
          d_tasks = tasks;
          d_stolen = stolen;
          d_busy_s = busy;
          d_busy_frac = (if span > 0.0 then busy /. span else 0.0);
        }
        :: acc)
      per_domain []
    |> List.sort (fun a b -> compare a.d_worker b.d_worker)
  in
  {
    s_start = !lo;
    s_workers = List.fold_left (fun acc t -> max acc (t.worker + 1)) 0 tasks;
    s_tasks = List.length tasks;
    s_steals = !steals;
    s_span_s = span;
    s_wait_us = wait;
    s_run_us = run;
    s_domains = domains;
  }

let report spans =
  let s = summarize (tasks spans) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "pool report: %d task(s), %d worker(s), span %.4g s\n" s.s_tasks
       s.s_workers s.s_span_s);
  let local = s.s_tasks - s.s_steals in
  let frac =
    if s.s_tasks = 0 then 0.0 else float_of_int s.s_steals /. float_of_int s.s_tasks
  in
  Buffer.add_string buf
    (Printf.sprintf "steals %d (%.1f%%), local pops %d\n\n" s.s_steals (100.0 *. frac)
       local);
  Buffer.add_string buf (Histogram.render [ s.s_wait_us; s.s_run_us ]);
  if s.s_domains <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "\n%-8s %8s %8s %10s %10s\n" "domain" "tasks" "stolen" "busy_s"
         "busy_frac");
    List.iter
      (fun d ->
        Buffer.add_string buf
          (Printf.sprintf "%-8d %8d %8d %10.4g %10.3f\n" d.d_worker d.d_tasks d.d_stolen
             d.d_busy_s d.d_busy_frac))
      s.s_domains
  end;
  Buffer.contents buf
