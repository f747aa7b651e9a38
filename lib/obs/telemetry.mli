(** Telemetry capture and replay: the file form of the one
    instrumentation path.

    {!record} runs under {!Span.record}, so it arms the runtime and
    collects every completed {!Span} — pool workers' included, through
    {!Collector}. When the run ends it writes one JSON object per line,
    discriminated by the ["kind"] field:
    - span lines: [{"kind":"span","name":...,"wall_s":...}], in
      completion order (a pool's worker spans follow at its join);
    - metric lines: [{"kind":"metric","type":"counter"|"gauge", ...}],
      the per-kind totals of everything counted.

    A recording is its spans and its counters: every other view of it
    (the profile, the pool report, the Chrome trace, the duration
    histograms below) is a fold over {!read}'s result. Per-event detail
    is not in the file: it lives in {!Flight} dumps. *)

val record : ?jsonl:string -> ?chrome:string -> (unit -> 'a) -> 'a
(** Run [f] with telemetry recording on. [?jsonl] receives the lines
    above; [?chrome] a Chrome [trace_event] file of all spans. With
    neither given this is exactly [f ()]. Completed spans are held in
    memory until [f] returns. The files are written even if
    [f] raises (best effort; [f]'s exception wins). A write failure
    raises [Sys_error]. *)

type recording = { spans : Span.completed list; metrics : Metrics.snap list }

val read : string -> recording
(** The one reader of a telemetry file: its span lines in file order and
    its metric lines. Strict: raises [Json.Parse_error] on a line that is
    not JSON, a span or metric line of the wrong shape, or a line of any
    other kind; [Sys_error] if unreadable. *)

val span_histograms : Span.completed list -> Histogram.t list
(** The duration histograms of a span list, sorted by name:
    ["span.<name>"] observes each span's [wall_s], and
    ["span.virt.<name>"] each non-negative [virt_s]. *)

val render_summary : recording -> string
(** The [nebby stats] text: spans by name (count and total wall
    seconds, largest total first), the counter/gauge table, and the
    {!span_histograms} table. *)
