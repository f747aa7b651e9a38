(* Self-contained HTML reports over flight dumps: inline SVG and CSS, no
   scripts, no external assets — a dump becomes one file that renders the
   paper's BiF-vs-time view with anomaly annotations, the frequency
   spectrum the segmentation works from, the profiler waterfall and the
   candidate-score table.

   Everything here must be deterministic: charts are golden-tested byte
   for byte, so every number goes through a fixed-width format and every
   iteration order is explicit. No wall-clock values are consulted. *)

let fnum x = Printf.sprintf "%.6g" x
let coord x = Printf.sprintf "%.2f" x

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

(* Okabe-Ito palette: distinguishable under the common color-vision
   deficiencies, which matters for drop-vs-fault marks sharing a chart. *)
let c_bif = "#0072b2"
let c_cwnd = "#009e73"
let c_drop = "#d55e00"
let c_fault = "#e69f00"
let c_stall = "#cc79a7"
let c_retx = "#888888"
let c_axis = "#444444"
let c_grid = "#dddddd"

(* chart geometry *)
let cw = 640.0
let ch = 170.0
let ml = 64.0
let mr = 12.0
let mt = 10.0
let mb = 26.0

type series = { times : float array; values : float array }

let series_of pairs =
  {
    times = Array.of_list (List.map fst pairs);
    values = Array.of_list (List.map snd pairs);
  }

let arr_max a = Array.fold_left Float.max neg_infinity a
let arr_min a = Array.fold_left Float.min infinity a

(* scale helpers: map data space into the plot rectangle *)
let xpos ~t0 ~t1 t = ml +. ((t -. t0) /. Float.max 1e-9 (t1 -. t0) *. (cw -. ml -. mr))
let ypos ~vmax v = mt +. ((1.0 -. (v /. Float.max 1e-9 vmax)) *. (ch -. mt -. mb))

let polyline buf ~t0 ~t1 ~vmax ~color ?(dash = "") s =
  if Array.length s.times >= 2 then begin
    Buffer.add_string buf
      (Printf.sprintf "<polyline fill=\"none\" stroke=\"%s\" stroke-width=\"1.2\"%s points=\""
         color
         (if dash = "" then "" else Printf.sprintf " stroke-dasharray=\"%s\"" dash));
    Array.iteri
      (fun i t ->
        if i > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf (coord (xpos ~t0 ~t1 t));
        Buffer.add_char buf ',';
        Buffer.add_string buf (coord (ypos ~vmax s.values.(i))))
      s.times;
    Buffer.add_string buf "\"/>\n"
  end

let vtick buf ~t0 ~t1 ~color ~y0 ~y1 t =
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" stroke-width=\"1\"/>\n"
       (coord (xpos ~t0 ~t1 t)) (coord y0) (coord (xpos ~t0 ~t1 t)) (coord y1) color)

let axes buf ~t0 ~t1 ~vmax ~ylabel =
  let x0 = ml and x1 = cw -. mr and yb = ch -. mb in
  (* horizontal gridlines at 1/4, 1/2, 3/4 of the y range *)
  List.iter
    (fun f ->
      let y = mt +. (f *. (ch -. mt -. mb)) in
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" stroke-width=\"0.5\"/>\n"
           (coord x0) (coord y) (coord x1) (coord y) c_grid))
    [ 0.25; 0.5; 0.75 ];
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" stroke-width=\"1\"/>\n"
       (coord x0) (coord yb) (coord x1) (coord yb) c_axis);
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" stroke-width=\"1\"/>\n"
       (coord x0) (coord mt) (coord x0) (coord yb) c_axis);
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%s\" y=\"%s\" font-size=\"10\" text-anchor=\"end\" fill=\"%s\">%s</text>\n"
       (coord (x0 -. 4.0)) (coord (mt +. 8.0)) c_axis (esc (fnum vmax)));
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%s\" y=\"%s\" font-size=\"10\" text-anchor=\"end\" fill=\"%s\">0</text>\n"
       (coord (x0 -. 4.0)) (coord yb) c_axis);
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%s\" y=\"%s\" font-size=\"10\" text-anchor=\"start\" fill=\"%s\">%s s</text>\n"
       (coord x0) (coord (yb +. 14.0)) c_axis (esc (fnum t0)));
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%s\" y=\"%s\" font-size=\"10\" text-anchor=\"end\" fill=\"%s\">%s s</text>\n"
       (coord x1) (coord (yb +. 14.0)) c_axis (esc (fnum t1)));
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"12\" y=\"%s\" font-size=\"10\" fill=\"%s\" transform=\"rotate(-90 12 %s)\" \
        text-anchor=\"middle\">%s</text>\n"
       (coord ((mt +. ch -. mb) /. 2.0))
       c_axis
       (coord ((mt +. ch -. mb) /. 2.0))
       (esc ylabel))

let legend_entries entries =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "<p class=\"legend\">";
  List.iteri
    (fun i (color, label) ->
      if i > 0 then Buffer.add_string buf "&#160;&#160;";
      Buffer.add_string buf
        (Printf.sprintf "<span style=\"color:%s\">&#9632;</span> %s" color (esc label)))
    entries;
  Buffer.add_string buf "</p>\n";
  Buffer.contents buf

(* one run of the dump: the BiF timeline with cwnd overlay and anomaly
   marks, the figure the paper reads CCAs from *)
let timeline_svg ~bif ~cwnd ~drops ~faults ~stalls ~retxs =
  let buf = Buffer.create 4096 in
  let t0 = Float.min (arr_min bif.times) 0.0 in
  let t1 = arr_max bif.times in
  let vmax =
    Float.max (arr_max bif.values)
      (if Array.length cwnd.times > 0 then arr_max cwnd.values else 0.0)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg viewBox=\"0 0 %s %s\" width=\"%s\" height=\"%s\" \
        xmlns=\"http://www.w3.org/2000/svg\">\n"
       (coord cw) (coord ch) (coord cw) (coord ch));
  axes buf ~t0 ~t1 ~vmax ~ylabel:"bytes";
  let y0 = mt and y1 = ch -. mb in
  List.iter (vtick buf ~t0 ~t1 ~color:c_fault ~y0 ~y1) faults;
  List.iter (vtick buf ~t0 ~t1 ~color:c_stall ~y0 ~y1) stalls;
  List.iter (vtick buf ~t0 ~t1 ~color:c_drop ~y0 ~y1) drops;
  List.iter (vtick buf ~t0 ~t1 ~color:c_retx ~y0:(y1 -. 10.0) ~y1) retxs;
  polyline buf ~t0 ~t1 ~vmax ~color:c_bif bif;
  polyline buf ~t0 ~t1 ~vmax ~color:c_cwnd ~dash:"4 2" cwnd;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

(* Frequency spectrum of a BiF series: resample to a uniform grid, then a
   small direct DFT over the low bins — the oscillation frequencies that
   identify a CCA sit far below Nyquist, so 48 bins suffice and the whole
   thing stays dependency-free. *)
let spectrum_bins = 48
let spectrum_grid = 256

let resample s n =
  let t0 = arr_min s.times and t1 = arr_max s.times in
  let span = Float.max 1e-9 (t1 -. t0) in
  let out = Array.make n 0.0 in
  let m = Array.length s.times in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let t = t0 +. (float_of_int i /. float_of_int (n - 1) *. span) in
    while !j < m - 2 && s.times.(!j + 1) < t do
      incr j
    done;
    let ta = s.times.(!j) and tb = s.times.(!j + 1) in
    let va = s.values.(!j) and vb = s.values.(!j + 1) in
    let f = if tb -. ta <= 1e-12 then 0.0 else (t -. ta) /. (tb -. ta) in
    out.(i) <- va +. (Float.max 0.0 (Float.min 1.0 f) *. (vb -. va))
  done;
  (out, span)

let spectrum_of s =
  if Array.length s.times < 8 then None
  else begin
    let grid, span = resample s spectrum_grid in
    let n = Array.length grid in
    let mean = Array.fold_left ( +. ) 0.0 grid /. float_of_int n in
    let power = Array.make (spectrum_bins + 1) 0.0 in
    for k = 1 to spectrum_bins do
      let re = ref 0.0 and im = ref 0.0 in
      for i = 0 to n - 1 do
        let phi = 2.0 *. Float.pi *. float_of_int k *. float_of_int i /. float_of_int n in
        let v = grid.(i) -. mean in
        re := !re +. (v *. cos phi);
        im := !im -. (v *. sin phi)
      done;
      power.(k) <- ((!re *. !re) +. (!im *. !im)) /. float_of_int n
    done;
    Some (power, span)
  end

let spectrum_svg s =
  match spectrum_of s with
  | None -> None
  | Some (power, span) ->
    let buf = Buffer.create 2048 in
    let vmax = Array.fold_left Float.max 1e-9 power in
    let dominant = ref 1 in
    Array.iteri (fun k p -> if k >= 1 && p > power.(!dominant) then dominant := k) power;
    let h = 120.0 in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg viewBox=\"0 0 %s %s\" width=\"%s\" height=\"%s\" \
          xmlns=\"http://www.w3.org/2000/svg\">\n"
         (coord cw) (coord h) (coord cw) (coord h));
    let yb = h -. 18.0 in
    let bar_w = (cw -. ml -. mr) /. float_of_int spectrum_bins in
    for k = 1 to spectrum_bins do
      let x = ml +. (float_of_int (k - 1) *. bar_w) in
      let bh = power.(k) /. vmax *. (yb -. 8.0) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%s\" y=\"%s\" width=\"%s\" height=\"%s\" fill=\"%s\"/>\n"
           (coord (x +. 1.0))
           (coord (yb -. bh))
           (coord (Float.max 1.0 (bar_w -. 2.0)))
           (coord bh)
           (if k = !dominant then c_drop else c_bif))
    done;
    Buffer.add_string buf
      (Printf.sprintf
         "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" stroke-width=\"1\"/>\n"
         (coord ml) (coord yb) (coord (cw -. mr)) (coord yb) c_axis);
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"%s\">dominant %s Hz (bin %d of \
          %d, window %s s)</text>\n"
         (coord ml)
         (coord (h -. 4.0))
         c_axis
         (esc (fnum (float_of_int !dominant /. span)))
         !dominant spectrum_bins (esc (fnum span)));
    Buffer.add_string buf "</svg>\n";
    Some (Buffer.contents buf)

(* profiler waterfall: one horizontal bar per stage path, nested by depth,
   width proportional to inclusive wall time *)
let waterfall_svg (profile : Prof.profile) =
  let entries =
    List.sort (fun (a : Prof.entry) b -> compare a.path b.path) profile
  in
  match entries with
  | [] -> None
  | _ ->
    let total =
      List.fold_left
        (fun acc (e : Prof.entry) ->
          if String.contains e.path ';' then acc else acc +. e.stat.Prof.wall_s)
        0.0 entries
    in
    let total = Float.max 1e-9 total in
    let row_h = 18.0 in
    let n = List.length entries in
    let h = (float_of_int n *. row_h) +. 24.0 in
    let buf = Buffer.create 2048 in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg viewBox=\"0 0 %s %s\" width=\"%s\" height=\"%s\" \
          xmlns=\"http://www.w3.org/2000/svg\">\n"
         (coord cw) (coord h) (coord cw) (coord h));
    List.iteri
      (fun i (e : Prof.entry) ->
        let depth =
          String.fold_left (fun acc ch -> if ch = ';' then acc + 1 else acc) 0 e.path
        in
        let y = 4.0 +. (float_of_int i *. row_h) in
        let x = 180.0 +. (float_of_int depth *. 14.0) in
        let w = e.stat.Prof.wall_s /. total *. (cw -. x -. mr -. 80.0) in
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"4\" y=\"%s\" font-size=\"10\" fill=\"%s\">%s</text>\n"
             (coord (y +. 11.0)) c_axis (esc (Prof.leaf_name e.path)));
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%s\" y=\"%s\" width=\"%s\" height=\"%s\" fill=\"%s\" \
              fill-opacity=\"0.8\"/>\n"
             (coord x) (coord y)
             (coord (Float.max 1.0 w))
             (coord (row_h -. 4.0))
             c_bif);
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"%s\">%s s &#215;%d</text>\n"
             (coord (x +. Float.max 1.0 w +. 4.0))
             (coord (y +. 11.0))
             c_axis
             (esc (fnum e.stat.Prof.wall_s))
             e.stat.Prof.count))
      entries;
    Buffer.add_string buf "</svg>\n";
    Some (Buffer.contents buf)

(* dump digestion --------------------------------------------------------- *)

type run_view = {
  run_id : int;
  run_stage : string;
  run_bif : series;
  run_cwnd : series;
  run_drops : float list;
  run_faults : float list;
  run_stalls : float list;
  run_retxs : float list;
  run_modes : (string * string) list;  (* CCA name, last observed mode *)
}

let runs_of_dump (d : Flight.dump) =
  let run_ids =
    List.sort_uniq compare (List.map (fun (e : Flight.event) -> e.run) d.events)
  in
  List.map
    (fun rid ->
      let evs = List.filter (fun (e : Flight.event) -> e.run = rid) d.events in
      let of_kind k = List.filter (fun (e : Flight.event) -> e.kind = k) evs in
      let times k = List.map (fun (e : Flight.event) -> e.time) (of_kind k) in
      let stage =
        match of_kind Flight.Stage with
        | e :: _ -> e.detail
        | [] -> Printf.sprintf "run %d" rid
      in
      let modes =
        List.fold_left
          (fun acc (e : Flight.event) ->
            if e.kind = Flight.Cca_state then
              (e.detail, e.extra) :: List.remove_assoc e.detail acc
            else acc)
          [] evs
        |> List.sort compare
      in
      {
        run_id = rid;
        run_stage = stage;
        run_bif =
          series_of (List.map (fun (e : Flight.event) -> (e.time, e.a)) (of_kind Flight.Bif));
        run_cwnd =
          series_of
            (List.map (fun (e : Flight.event) -> (e.time, e.a)) (of_kind Flight.Cca_state));
        run_drops = times Flight.Drop;
        run_faults = times Flight.Fault;
        run_stalls = times Flight.Stall;
        run_retxs = times Flight.Retx;
        run_modes = modes;
      })
    run_ids

(* report assembly -------------------------------------------------------- *)

let style =
  "body{font-family:sans-serif;margin:24px;max-width:720px;color:#222}\n\
   h1{font-size:20px}h2{font-size:15px;margin-top:28px;border-bottom:1px solid #ddd}\n\
   table{border-collapse:collapse;font-size:12px}\n\
   td,th{border:1px solid #ccc;padding:3px 8px;text-align:left}\n\
   th{background:#f2f2f2}\n\
   .meta td{border:none;padding:1px 12px 1px 0}\n\
   .legend{font-size:11px;color:#444}\n\
   .note{font-size:12px;color:#666}\n"

let section buf title = Buffer.add_string buf (Printf.sprintf "<h2>%s</h2>\n" (esc title))

let meta_row buf k v =
  Buffer.add_string buf
    (Printf.sprintf "<tr><td>%s</td><td><b>%s</b></td></tr>\n" (esc k) (esc v))

let count_kind (d : Flight.dump) k =
  List.length (List.filter (fun (e : Flight.event) -> e.kind = k) d.events)

(* campaign dashboard ----------------------------------------------------- *)

(* Horizontal bar chart over aggregated cells. [whisker] selects the
   error interval: `Ci draws mean +/- ci95 (skipped for single-seed
   cells, whose interval is degenerate), `Minmax draws the observed
   min..max range. Non-finite means are guarded out of SVG coordinates
   and reported as text. *)
let hbar_svg ~whisker ~vmax_floor entries =
  let lw = 170.0 and row_h = 22.0 in
  let x0 = lw and x1 = cw -. mr -. 64.0 in
  let finite x = Float.is_finite x in
  let hi (st : Campaign.stat) =
    match whisker with
    | `Ci -> st.Campaign.mean +. st.Campaign.ci95
    | `Minmax -> st.Campaign.max_v
  in
  let vmax =
    List.fold_left
      (fun acc (_, st) ->
        if finite st.Campaign.mean && finite (hi st) then Float.max acc (hi st) else acc)
      vmax_floor entries
  in
  let vmax = Float.max 1e-9 vmax in
  let xv v = x0 +. (Float.max 0.0 (Float.min 1.0 (v /. vmax)) *. (x1 -. x0)) in
  let n = List.length entries in
  let h = (float_of_int n *. row_h) +. 8.0 in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg viewBox=\"0 0 %s %s\" width=\"%s\" height=\"%s\" \
        xmlns=\"http://www.w3.org/2000/svg\">\n"
       (coord cw) (coord h) (coord cw) (coord h));
  List.iteri
    (fun i (label, (st : Campaign.stat)) ->
      let y = 4.0 +. (float_of_int i *. row_h) in
      let yc = y +. 7.0 in
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"%s\" y=\"%s\" font-size=\"10\" text-anchor=\"end\" \
            fill=\"%s\">%s</text>\n"
           (coord (x0 -. 6.0)) (coord (yc +. 4.0)) c_axis (esc label));
      if not (finite st.Campaign.mean) then
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"%s\">non-finite</text>\n"
             (coord (x0 +. 4.0)) (coord (yc +. 4.0)) c_drop)
      else begin
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%s\" y=\"%s\" width=\"%s\" height=\"14\" fill=\"%s\" \
              fill-opacity=\"0.8\"/>\n"
             (coord x0) (coord y)
             (coord (Float.max 0.5 (xv st.Campaign.mean -. x0)))
             c_bif);
        let lo, hi_v =
          match whisker with
          | `Ci -> (st.Campaign.mean -. st.Campaign.ci95, st.Campaign.mean +. st.Campaign.ci95)
          | `Minmax -> (st.Campaign.min_v, st.Campaign.max_v)
        in
        (* a one-seed cell has no interval; a collapsed interval has no ink *)
        if st.Campaign.n >= 2 && finite lo && finite hi_v && hi_v -. lo > 0.0 then begin
          Buffer.add_string buf
            (Printf.sprintf
               "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" \
                stroke-width=\"1.2\"/>\n"
               (coord (xv lo)) (coord yc) (coord (xv hi_v)) (coord yc) c_drop);
          List.iter
            (fun v ->
              Buffer.add_string buf
                (Printf.sprintf
                   "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" \
                    stroke-width=\"1.2\"/>\n"
                   (coord (xv v)) (coord (yc -. 4.0)) (coord (xv v)) (coord (yc +. 4.0))
                   c_drop))
            [ lo; hi_v ]
        end;
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"%s\">%s (n=%d)</text>\n"
             (coord (x1 +. 6.0)) (coord (yc +. 4.0)) c_axis
             (esc (fnum st.Campaign.mean)) st.Campaign.n)
      end)
    entries;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

(* pool scheduler views ---------------------------------------------------- *)

(* Per-domain utilization timeline: one horizontal track per worker,
   one rect per task span (steals in the accent color), busy fraction
   printed at the right edge. Pure function of the trace: coordinates
   come from the recorded stamps only, through the fixed-precision
   formatters, so equal traces render byte-identically. *)
let pool_timeline_svg (tasks : Pooltrace.task list) (s : Pooltrace.summary) =
  let row_h = 22.0 in
  let workers = max 1 s.Pooltrace.s_workers in
  let h = (float_of_int workers *. row_h) +. 26.0 in
  let span = Float.max 1e-9 s.Pooltrace.s_span_s in
  let t0 = s.Pooltrace.s_start in
  let x0 = ml and x1 = cw -. mr -. 56.0 in
  let xv t = x0 +. (Float.max 0.0 (Float.min 1.0 ((t -. t0) /. span)) *. (x1 -. x0)) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg viewBox=\"0 0 %s %s\" width=\"%s\" height=\"%s\" \
        xmlns=\"http://www.w3.org/2000/svg\">\n"
       (coord cw) (coord h) (coord cw) (coord h));
  if s.Pooltrace.s_tasks = 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%s\" y=\"20\" font-size=\"10\" fill=\"%s\">empty trace</text>\n"
         (coord ml) c_axis)
  else begin
    let frac_of w =
      match
        List.find_opt (fun d -> d.Pooltrace.d_worker = w) s.Pooltrace.s_domains
      with
      | Some d -> d.Pooltrace.d_busy_frac
      | None -> 0.0
    in
    for w = 0 to workers - 1 do
      let y = 4.0 +. (float_of_int w *. row_h) in
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"%s\" y=\"%s\" font-size=\"10\" text-anchor=\"end\" \
            fill=\"%s\">worker %d</text>\n"
           (coord (x0 -. 6.0)) (coord (y +. 11.0)) c_axis w);
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" \
            stroke-width=\"0.5\"/>\n"
           (coord x0) (coord (y +. 7.0)) (coord x1) (coord (y +. 7.0)) c_grid);
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"%s\">%s</text>\n"
           (coord (x1 +. 6.0)) (coord (y +. 11.0)) c_axis
           (esc (Printf.sprintf "%.0f%%" (100.0 *. frac_of w))))
    done;
    List.iter
      (fun (t : Pooltrace.task) ->
        let y = 4.0 +. (float_of_int t.Pooltrace.worker *. row_h) in
        let xa = xv t.Pooltrace.t_start and xb = xv t.Pooltrace.t_finish in
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%s\" y=\"%s\" width=\"%s\" height=\"14\" fill=\"%s\" \
              fill-opacity=\"0.8\"><title>%s</title></rect>\n"
             (coord xa) (coord y)
             (coord (Float.max 0.5 (xb -. xa)))
             (if t.Pooltrace.stolen then c_drop else c_bif)
             (esc
                (Printf.sprintf "task %d%s" t.Pooltrace.index
                   (if t.Pooltrace.stolen then " (stolen)" else "")))))
      tasks;
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%s\" y=\"%s\" font-size=\"9\" fill=\"%s\">0</text>\n"
         (coord x0) (coord (h -. 6.0)) c_axis);
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%s\" y=\"%s\" font-size=\"9\" text-anchor=\"end\" \
          fill=\"%s\">%s s</text>\n"
         (coord x1) (coord (h -. 6.0)) c_axis (esc (fnum span)))
  end;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let pool_hist_row buf (hname : string) (h : Histogram.t) =
  let cell v = if Histogram.count h = 0 then "&#8212;" else esc (fnum v) in
  Buffer.add_string buf
    (Printf.sprintf
       "<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
       (esc hname) (Histogram.count h)
       (cell (Histogram.quantile h 0.50))
       (cell (Histogram.quantile h 0.90))
       (cell (Histogram.quantile h 0.99))
       (cell (Histogram.max_value h)))

let pool_section buf spans =
  let tasks = Pooltrace.tasks spans in
  let s = Pooltrace.summarize tasks in
  Buffer.add_string buf "<table class=\"meta\">\n";
  meta_row buf "tasks" (string_of_int s.Pooltrace.s_tasks);
  meta_row buf "workers" (string_of_int s.Pooltrace.s_workers);
  meta_row buf "steals"
    (Printf.sprintf "%d (%.1f%%)" s.Pooltrace.s_steals
       (if s.Pooltrace.s_tasks = 0 then 0.0
        else
          100.0 *. float_of_int s.Pooltrace.s_steals /. float_of_int s.Pooltrace.s_tasks));
  meta_row buf "span" (Printf.sprintf "%s s" (fnum s.Pooltrace.s_span_s));
  Buffer.add_string buf "</table>\n";
  Buffer.add_string buf (pool_timeline_svg tasks s);
  Buffer.add_string buf
    (legend_entries [ (c_bif, "local task"); (c_drop, "stolen task") ]);
  Buffer.add_string buf
    "<table><tr><th>histogram (&#181;s)</th><th>count</th><th>p50</th><th>p90</th>\
     <th>p99</th><th>max</th></tr>\n";
  pool_hist_row buf "queue wait" s.Pooltrace.s_wait_us;
  pool_hist_row buf "run time" s.Pooltrace.s_run_us;
  Buffer.add_string buf "</table>\n";
  if s.Pooltrace.s_domains <> [] then begin
    Buffer.add_string buf
      "<table><tr><th>domain</th><th>tasks</th><th>stolen</th><th>busy s</th>\
       <th>busy frac</th></tr>\n";
    List.iter
      (fun (d : Pooltrace.domain_stat) ->
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td></tr>\n"
             d.Pooltrace.d_worker d.Pooltrace.d_tasks d.Pooltrace.d_stolen
             (esc (fnum d.Pooltrace.d_busy_s))
             (esc (Printf.sprintf "%.3f" d.Pooltrace.d_busy_frac))))
      s.Pooltrace.s_domains;
    Buffer.add_string buf "</table>\n"
  end

let pool_report_html ~spans () =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>\n";
  Buffer.add_string buf "<title>nebby pool report</title>\n";
  Buffer.add_string buf (Printf.sprintf "<style>\n%s</style>\n</head>\n<body>\n" style);
  Buffer.add_string buf "<h1>nebby pool report</h1>\n";
  section buf "Scheduler utilization";
  pool_section buf spans;
  Buffer.add_string buf "<p class=\"note\">generated by nebby report</p>\n";
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

let campaign_style =
  ".pass{color:#009e73;font-weight:bold}\n\
   .fail{color:#d55e00;font-weight:bold}\n\
   .skip{color:#888888}\n\
   code{background:#f2f2f2;padding:0 3px}\n"

(* Split summary cells into dashboard groups by name prefix. *)
let cells_with_prefix prefix cells =
  List.filter_map
    (fun (name, st) ->
      let pl = String.length prefix in
      if String.length name > pl && String.sub name 0 pl = prefix then
        Some (String.sub name pl (String.length name - pl), st)
      else None)
    cells

(* drift observatory ------------------------------------------------------- *)

(* Okabe-Ito plus darker fill-ins: enough distinct hues for the
   Table-11 class roster; Unclassified is always the neutral grey. *)
let drift_palette =
  [| "#0072b2"; "#d55e00"; "#009e73"; "#e69f00"; "#cc79a7"; "#56b4e9"; "#b2a800";
     "#8c510a"; "#762a83"; "#1b7837"; "#b2182b"; "#2166ac" |]

let drift_color i cls =
  if cls = "Unclassified" then "#bbbbbb"
  else drift_palette.(i mod Array.length drift_palette)

(* Stacked-order classes: dominant bands at the bottom of the chart,
   Unclassified always on top, name as the tie-break. *)
let drift_class_order (l : Drift.ledger) =
  let weight c =
    List.fold_left (fun acc p -> acc +. Drift.share p c) 0.0 l.Drift.points
  in
  List.sort
    (fun a b ->
      match (a = "Unclassified", b = "Unclassified") with
      | true, false -> 1
      | false, true -> -1
      | _ ->
        let wa = weight a and wb = weight b in
        if wa <> wb then compare wb wa else compare a b)
    (Drift.classes l)

let drift_event_rate = function
  | Drift.Emerged { rate_per_epoch; _ }
  | Drift.Collapsed { rate_per_epoch; _ }
  | Drift.Migration { rate_per_epoch; _ } ->
    rate_per_epoch

(* Share-over-epochs stacked area chart with drift-event annotations.
   Shares are percentages, so the y axis is fixed at 0..100 and runs
   with different populations stay visually comparable. *)
let drift_stack_svg (l : Drift.ledger) (events : Drift.event list) =
  let pts =
    match l.Drift.points with
    | [ p ] -> [| p; p |] (* one epoch: draw flat full-width bands *)
    | ps -> Array.of_list ps
  in
  let n = Array.length pts in
  if n = 0 then "<p class=\"note\">empty ledger &#8212; no epochs recorded</p>\n"
  else begin
    let order = drift_class_order l in
    let x i = ml +. (float_of_int i /. float_of_int (n - 1) *. (cw -. ml -. mr)) in
    let y pct =
      mt +. ((1.0 -. (Float.max 0.0 (Float.min 100.0 pct) /. 100.0)) *. (ch -. mt -. mb))
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg viewBox=\"0 0 %s %s\" width=\"%s\" height=\"%s\" \
          xmlns=\"http://www.w3.org/2000/svg\">\n"
         (coord cw) (coord ch) (coord cw) (coord ch));
    (* y grid + labels at quartile shares *)
    List.iter
      (fun pct ->
        Buffer.add_string buf
          (Printf.sprintf
             "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" \
              stroke-width=\"0.5\"/>\n"
             (coord ml) (coord (y pct)) (coord (cw -. mr)) (coord (y pct)) c_grid);
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%s\" y=\"%s\" font-size=\"9\" text-anchor=\"end\" \
              fill=\"%s\">%s%%</text>\n"
             (coord (ml -. 4.0))
             (coord (y pct +. 3.0))
             c_axis (fnum pct)))
      [ 0.0; 25.0; 50.0; 75.0; 100.0 ];
    (* stacked bands, bottom-up *)
    let base = Array.make n 0.0 in
    List.iteri
      (fun ci cls ->
        let pts_fwd =
          List.init n (fun i ->
              Printf.sprintf "%s,%s" (coord (x i))
                (coord (y (base.(i) +. Drift.share pts.(i) cls))))
        in
        let pts_back =
          List.init n (fun k ->
              let i = n - 1 - k in
              Printf.sprintf "%s,%s" (coord (x i)) (coord (y base.(i))))
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<polygon points=\"%s\" fill=\"%s\" fill-opacity=\"0.75\" \
              stroke=\"%s\" stroke-width=\"0.6\"/>\n"
             (String.concat " " (pts_fwd @ pts_back))
             (drift_color ci cls) (drift_color ci cls));
        Array.iteri (fun i b -> base.(i) <- b +. Drift.share pts.(i) cls) base)
      order;
    (* x labels: epoch numbers, thinned when dense *)
    let stride = max 1 ((n + 15) / 16) in
    Array.iteri
      (fun i p ->
        if i mod stride = 0 || i = n - 1 then
          Buffer.add_string buf
            (Printf.sprintf
               "<text x=\"%s\" y=\"%s\" font-size=\"9\" text-anchor=\"middle\" \
                fill=\"%s\">e%d</text>\n"
               (coord (x i))
               (coord (ch -. mb +. 12.0))
               c_axis p.Drift.epoch))
      pts;
    (* drift-event annotations: a dashed vertical at the alarm epoch *)
    let index_of_epoch e =
      let found = ref None in
      Array.iteri (fun i p -> if !found = None && p.Drift.epoch = e then found := Some i) pts;
      !found
    in
    List.iteri
      (fun k ev ->
        match index_of_epoch (Drift.event_epoch ev) with
        | None -> ()
        | Some i ->
          Buffer.add_string buf
            (Printf.sprintf
               "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"%s\" \
                stroke-width=\"1.2\" stroke-dasharray=\"4 3\"/>\n"
               (coord (x i)) (coord mt) (coord (x i))
               (coord (ch -. mb))
               c_fault);
          Buffer.add_string buf
            (Printf.sprintf
               "<text x=\"%s\" y=\"%s\" font-size=\"9\" fill=\"%s\">%s</text>\n"
               (coord (x i +. 3.0))
               (coord (mt +. 10.0 +. (float_of_int (k mod 3) *. 11.0)))
               c_fault
               (esc (Drift.event_label ev))))
      events;
    Buffer.add_string buf "</svg>\n";
    Buffer.add_string buf
      (legend_entries
         (List.mapi (fun ci cls -> (drift_color ci cls, cls)) order));
    Buffer.contents buf
  end

let drift_epoch_table buf (l : Drift.ledger) =
  Buffer.add_string buf
    "<table><tr><th>epoch</th><th>hosts</th><th>unknown %</th><th>mean \
     conf</th><th>mean margin</th><th>timeouts</th><th>top classes</th></tr>\n";
  List.iter
    (fun (p : Drift.point) ->
      let top =
        List.sort
          (fun (ca, pa) (cb, pb) -> if pa <> pb then compare pb pa else compare ca cb)
          p.Drift.shares
      in
      let top =
        List.filteri (fun i _ -> i < 3) top
        |> List.map (fun (c, pct) -> Printf.sprintf "%s %s%%" c (fnum pct))
      in
      Buffer.add_string buf
        (Printf.sprintf
           "<tr><td>e%d</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td>\
            <td>%s</td></tr>\n"
           p.Drift.epoch p.Drift.hosts
           (fnum p.Drift.unknown_share)
           (fnum p.Drift.mean_confidence)
           (fnum p.Drift.mean_margin) p.Drift.timeouts
           (esc (String.concat ", " top))))
    l.Drift.points;
  Buffer.add_string buf "</table>\n"

let drift_section buf ~ledger ~events =
  Buffer.add_string buf (drift_stack_svg ledger events);
  (match events with
  | [] ->
    Buffer.add_string buf
      "<p class=\"note\">no change-point events detected</p>\n"
  | events ->
    Buffer.add_string buf
      "<table><tr><th>epoch</th><th>event</th><th>rate (pts/epoch)</th></tr>\n";
    List.iter
      (fun ev ->
        Buffer.add_string buf
          (Printf.sprintf "<tr><td>e%d</td><td>%s</td><td>%s</td></tr>\n"
             (Drift.event_epoch ev)
             (esc (Drift.event_label ev))
             (fnum (drift_event_rate ev))))
      events;
    Buffer.add_string buf "</table>\n")

let drift_dashboard ?(historical = []) ?(alerts = []) ~ledger ~events () =
  let l : Drift.ledger = ledger in
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>\n";
  Buffer.add_string buf
    (Printf.sprintf "<title>nebby drift: %s</title>\n" (esc l.Drift.subject));
  Buffer.add_string buf
    (Printf.sprintf "<style>\n%s%s</style>\n</head>\n<body>\n" style campaign_style);
  Buffer.add_string buf
    (Printf.sprintf "<h1>nebby drift observatory &#8212; %s</h1>\n"
       (esc l.Drift.subject));
  Buffer.add_string buf "<table class=\"meta\">\n";
  meta_row buf "subject" l.Drift.subject;
  meta_row buf "epochs" (string_of_int (List.length l.Drift.points));
  meta_row buf "classes" (string_of_int (List.length (Drift.classes l)));
  meta_row buf "events" (string_of_int (List.length events));
  Buffer.add_string buf "</table>\n";
  section buf "Share over epochs";
  drift_section buf ~ledger ~events;
  section buf "Epoch ledger";
  drift_epoch_table buf l;
  section buf "Alert timeline";
  (match alerts with
  | [] -> Buffer.add_string buf "<p class=\"note\">no alert transitions</p>\n"
  | alerts ->
    Buffer.add_string buf
      "<table><tr><th>epoch</th><th>rule</th><th>action</th><th>value</th>\
       <th>limit</th></tr>\n";
    List.iter
      (fun (epoch, rule, action, value, limit) ->
        let cls, txt =
          match action with `Fire -> ("fail", "FIRE") | `Resolve -> ("pass", "RESOLVE")
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td>e%d</td><td>%s</td><td class=\"%s\">%s</td><td>%s</td>\
              <td>%s</td></tr>\n"
             epoch (esc rule) cls txt (fnum value) (fnum limit)))
      alerts;
    Buffer.add_string buf "</table>\n");
  (match historical with
  | [] -> ()
  | rows ->
    section buf "Historical context (Census_history)";
    Buffer.add_string buf
      "<table><tr><th>study</th><th>year</th><th>shares</th></tr>\n";
    List.iter
      (fun (study, year, shares) ->
        let txt =
          String.concat ", "
            (List.map (fun (c, pct) -> Printf.sprintf "%s %s%%" c (fnum pct)) shares)
        in
        Buffer.add_string buf
          (Printf.sprintf "<tr><td>%s</td><td>%d</td><td>%s</td></tr>\n" (esc study)
             year (esc txt)))
      rows;
    Buffer.add_string buf "</table>\n");
  Buffer.add_string buf
    (Printf.sprintf
       "<p class=\"note\">drift ledger schema v%d &#183; generated by nebby drift</p>\n"
       Drift.schema_version);
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

let campaign_dashboard ?(gates = []) ?pool ?drift ~summary () =
  let s : Campaign.summary = summary in
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>\n";
  Buffer.add_string buf
    (Printf.sprintf "<title>nebby campaign: %s</title>\n" (esc s.Campaign.experiment));
  Buffer.add_string buf
    (Printf.sprintf "<style>\n%s%s</style>\n</head>\n<body>\n" style campaign_style);
  Buffer.add_string buf
    (Printf.sprintf "<h1>nebby campaign dashboard &#8212; %s</h1>\n"
       (esc s.Campaign.experiment));
  Buffer.add_string buf "<table class=\"meta\">\n";
  meta_row buf "experiment" s.Campaign.experiment;
  meta_row buf "seeds"
    (Printf.sprintf "%d (%s)"
       (List.length s.Campaign.seeds)
       (String.concat ", " (List.map string_of_int s.Campaign.seeds)));
  meta_row buf "cells" (string_of_int (List.length s.Campaign.cells));
  Buffer.add_string buf "</table>\n";
  (match gates with
  | [] -> ()
  | gates ->
    section buf "Pass gates";
    Buffer.add_string buf
      "<table><tr><th>gate</th><th>clause</th><th>value</th><th>status</th></tr>\n";
    List.iter
      (fun (r : Campaign.gate_result) ->
        let cls, txt =
          match r.Campaign.status with
          | Campaign.Pass -> ("pass", "PASS")
          | Campaign.Fail -> ("fail", "FAIL")
          | Campaign.Skip -> ("skip", "SKIP")
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td>%s</td><td>%s</td><td>%s</td><td class=\"%s\">%s</td></tr>\n"
             (esc r.Campaign.gate.Campaign.gate_name)
             (esc (Campaign.gate_describe r.Campaign.gate))
             (match r.Campaign.value with Some v -> esc (fnum v) | None -> "&#8212;")
             cls txt))
      gates;
    Buffer.add_string buf "</table>\n");
  if s.Campaign.seeds = [] then
    Buffer.add_string buf
      "<p class=\"note\">empty campaign (0 seeds) &#8212; nothing to aggregate</p>\n"
  else begin
    let cells = s.Campaign.cells in
    let family = cells_with_prefix "accuracy.family." cells in
    let per_cca =
      List.filter
        (fun (name, _) ->
          String.length name < 16 || String.sub name 0 16 <> "accuracy.family.")
        (cells_with_prefix "accuracy." cells)
      @ List.filter_map
          (fun (name, st) -> if name = "accuracy" then Some ("overall", st) else None)
          cells
    in
    let conf = cells_with_prefix "confidence." cells in
    let marg = cells_with_prefix "margin." cells in
    if per_cca <> [] then begin
      section buf "Per-CCA accuracy (mean with 95% CI)";
      Buffer.add_string buf (hbar_svg ~whisker:`Ci ~vmax_floor:1.0 per_cca);
      Buffer.add_string buf
        (legend_entries [ (c_bif, "mean accuracy"); (c_drop, "95% CI") ])
    end;
    if family <> [] then begin
      section buf "Accuracy by CCA family";
      Buffer.add_string buf (hbar_svg ~whisker:`Ci ~vmax_floor:1.0 family)
    end;
    if conf <> [] then begin
      section buf "Confidence distribution (mean with min-max range)";
      Buffer.add_string buf (hbar_svg ~whisker:`Minmax ~vmax_floor:1e-9 conf)
    end;
    if marg <> [] then begin
      section buf "Margin distribution (mean with min-max range)";
      Buffer.add_string buf (hbar_svg ~whisker:`Minmax ~vmax_floor:1e-9 marg)
    end;
    (match s.Campaign.confusion with
    | [] -> ()
    | confusion ->
      section buf "Confusion tallies (expected vs got)";
      Buffer.add_string buf
        "<table><tr><th>expected</th><th>got</th><th>count</th></tr>\n";
      List.iter
        (fun (expected, gots) ->
          List.iter
            (fun (got, count) ->
              Buffer.add_string buf
                (Printf.sprintf "<tr><td>%s</td><td>%s</td><td>%d</td></tr>\n"
                   (esc expected) (esc got) count))
            gots)
        confusion;
      Buffer.add_string buf "</table>\n");
    match s.Campaign.outliers with
    | [] -> ()
    | outliers ->
      section buf "Seed outliers";
      Buffer.add_string buf
        "<p class=\"note\">seeds farthest from the campaign mean; replay a missed \
         subject with <code>nebby explain &lt;subject&gt;</code> to pull its \
         provenance and flight dump</p>\n";
      Buffer.add_string buf
        "<table><tr><th>seed</th><th>value</th><th>z</th><th>missed subjects</th></tr>\n";
      List.iter
        (fun (o : Campaign.outlier) ->
          Buffer.add_string buf
            (Printf.sprintf "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
               o.Campaign.o_seed
               (esc (fnum o.Campaign.value))
               (esc (fnum o.Campaign.z))
               (esc (String.concat "; " o.Campaign.misses))))
        outliers;
      Buffer.add_string buf "</table>\n"
  end;
  (match pool with
  | None -> ()
  | Some spans ->
    section buf "Pool scheduler (this run — wall-clock, not deterministic)";
    pool_section buf spans);
  (match drift with
  | None -> ()
  | Some (ledger, events) ->
    section buf "Deployment drift (serve store)";
    drift_section buf ~ledger ~events);
  Buffer.add_string buf
    (Printf.sprintf
       "<p class=\"note\">campaign schema v%d &#183; generated by nebby campaign</p>\n"
       s.Campaign.version);
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

let measurement_report ?provenance ?prof ~dump () =
  let d : Flight.dump = dump in
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>\n";
  Buffer.add_string buf
    (Printf.sprintf "<title>nebby report: %s</title>\n" (esc d.subject));
  Buffer.add_string buf (Printf.sprintf "<style>\n%s</style>\n</head>\n<body>\n" style);
  Buffer.add_string buf
    (Printf.sprintf "<h1>nebby measurement report &#8212; %s</h1>\n" (esc d.subject));
  Buffer.add_string buf "<table class=\"meta\">\n";
  meta_row buf "trigger" d.trigger;
  meta_row buf "attempt" (string_of_int d.attempt);
  meta_row buf "window" (fnum d.window_s ^ " s");
  meta_row buf "events"
    (Printf.sprintf "%d (%d drops, %d faults, %d retx, %d stalls)"
       (List.length d.events) (count_kind d Flight.Drop) (count_kind d Flight.Fault)
       (count_kind d Flight.Retx) (count_kind d Flight.Stall));
  (match provenance with
  | Some (p : Provenance.report) ->
    meta_row buf "verdict"
      (Printf.sprintf "%s (confidence %s, margin %s)" p.Provenance.label
         (fnum p.Provenance.confidence) (fnum p.Provenance.margin))
  | None -> ());
  Buffer.add_string buf "</table>\n";
  let runs = runs_of_dump d in
  List.iter
    (fun rv ->
      if Array.length rv.run_bif.times >= 2 then begin
        section buf (Printf.sprintf "BiF timeline &#8212; %s" rv.run_stage);
        (match rv.run_modes with
        | [] -> ()
        | modes ->
          Buffer.add_string buf
            (Printf.sprintf "<p class=\"note\">CCA state: %s</p>\n"
               (esc
                  (String.concat ", "
                     (List.map (fun (cca, mode) -> cca ^ " [" ^ mode ^ "]") modes)))));
        Buffer.add_string buf
          (timeline_svg ~bif:rv.run_bif ~cwnd:rv.run_cwnd ~drops:rv.run_drops
             ~faults:rv.run_faults ~stalls:rv.run_stalls ~retxs:rv.run_retxs);
        Buffer.add_string buf
          (legend_entries
             ([ (c_bif, "bytes in flight") ]
             @ (if Array.length rv.run_cwnd.times >= 2 then [ (c_cwnd, "cwnd") ] else [])
             @ [ (c_drop, "drop"); (c_fault, "fault"); (c_stall, "stall");
                 (c_retx, "retx") ]));
        match spectrum_svg rv.run_bif with
        | Some svg ->
          section buf (Printf.sprintf "Frequency spectrum &#8212; %s" rv.run_stage);
          Buffer.add_string buf svg
        | None -> ()
      end
      else begin
        section buf (Printf.sprintf "Run &#8212; %s" rv.run_stage);
        Buffer.add_string buf
          (Printf.sprintf
             "<p class=\"note\">no BiF series recorded (%d anomaly events; record at \
              normal or debug level for timelines)</p>\n"
             (List.length rv.run_drops + List.length rv.run_faults
             + List.length rv.run_stalls + List.length rv.run_retxs))
      end)
    runs;
  (match prof with
  | Some profile -> (
    match waterfall_svg profile with
    | Some svg ->
      section buf "Per-stage waterfall";
      Buffer.add_string buf svg
    | None -> ())
  | None -> ());
  (match provenance with
  | Some (p : Provenance.report) ->
    section buf "Candidate scores";
    Buffer.add_string buf
      "<table><tr><th>source</th><th>label</th><th>score</th><th>confidence</th></tr>\n";
    List.iter
      (fun (cand : Provenance.candidate) ->
        Buffer.add_string buf
          (Printf.sprintf "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
             (esc cand.Provenance.source) (esc cand.Provenance.label)
             (fnum cand.Provenance.score) (fnum cand.Provenance.confidence)))
      p.Provenance.candidates;
    Buffer.add_string buf "</table>\n"
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf
       "<p class=\"note\">flight dump schema v%d &#183; generated by nebby report</p>\n"
       d.version);
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf
