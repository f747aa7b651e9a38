(** Telemetry capture and replay: the file form of the one
    instrumentation path.

    {!record} runs under {!Span.record}, so it arms the runtime and
    collects every completed {!Span} — pool workers' included, through
    {!Collector}. When the run ends it writes one JSON object per line,
    discriminated by the ["kind"] field:
    - span lines: [{"kind":"span","name":...,"wall_s":...}], in
      completion order (a pool's worker spans follow at its join);
    - metric lines: [{"kind":"metric","type":"counter"|"gauge", ...}],
      the per-kind totals of everything counted;
    - histogram lines: [{"kind":"histogram", ...}] (see
      {!Histogram.to_json}), span durations included.

    Per-event detail is not in the file: it lives in {!Flight} dumps. *)

val record : ?jsonl:string -> ?chrome:string -> (unit -> 'a) -> 'a
(** Run [f] with telemetry recording on. [?jsonl] receives the lines
    above; [?chrome] a Chrome [trace_event] file of all spans. With
    neither given this is exactly [f ()]. Completed spans are held in
    memory until [f] returns. The files are written even if
    [f] raises (best effort; [f]'s exception wins). A write failure
    raises [Sys_error]. *)

val read_spans : string -> Span.completed list
(** The span lines of a telemetry file, in file order; metric and
    histogram lines are skipped. Raises [Json.Parse_error] on a line that
    is not JSON, a span line {!Span.of_json} rejects or a line of any
    other kind, [Sys_error] if unreadable. *)

type summary = {
  spans : (string * int * float) list;  (** span name, count, total wall seconds *)
  metrics : Metrics.snap list;
  histograms : Histogram.t list;
  malformed : int;  (** lines that failed to parse (0 for files we wrote) *)
}

val read_summary : string -> summary
(** Parse a JSONL telemetry file back. Raises [Sys_error] if unreadable. *)

val render_summary : summary -> string
