(** A reimplementation of Gordon, the paper's own 2019 predecessor
    (Appendix A), used to reproduce Table 9: running Gordon against the
    2023 Internet identifies only ~4% of websites because its probing —
    repeatedly dropping packets over hundreds of connections — now trips
    DDoS defenses.

    Methodology differences captured here, per §2.1 and §4.1:
    - Gordon estimates the {e cwnd} by counting unacknowledged packets once
      per RTT, after forcing a retransmission with a deliberate drop, so
      its traces are coarse (one point per RTT vs Nebby's one per packet);
    - it distinguishes only a handful of groups and cannot tell some pairs
      apart (Reno/HSTCP and CTCP/Illinois are single buckets, Vegas/Veno
      were confused in the original study);
    - its traffic pattern is hostile, so most sites serve it an error page
      (a short flow) or nothing at all. *)

type outcome =
  | Identified of string  (** "cubic" | "bbr" | "reno_hstcp" | "ctcp_illinois" *)
  | Unknown  (** measured but not matched *)
  | Short_flow  (** served an error page: trace too short to classify *)
  | Unresponsive  (** connection blocked outright *)

val outcome_label : outcome -> string

val cwnd_style : rtt:float -> Nebby.Bif.series -> Nebby.Bif.series
(** Degrade a BiF series to Gordon's view: one point per RTT, the window
    upper envelope. Shared with the metric ablation in the bench. *)

val survey :
  ?sites:int ->
  ?seed:int ->
  control:Nebby.Training.control ->
  region:Internet.Region.t ->
  Internet.Website.t list ->
  (string * int) list
(** Tally outcomes over a population (Table 9). *)
