(** A website in the synthetic Alexa-style population. *)

type cdn = Cloudflare | Akamai | Self_hosted | Other_cdn

type t = {
  rank : int;
  name : string;
  cdn : cdn;
  page_bytes : int;  (** largest crawlable page *)
  deployments : (Region.t * string) list;  (** ground-truth CCA per region *)
  quic : bool;  (** responds to QUIC requests *)
  quic_cca : string option;  (** CCA served over QUIC, when [quic] *)
  noise_factor : float;  (** path-quality multiplier on the region noise *)
  ddos_sensitivity : float;
      (** probability [0,1] that hostile probing (Gordon-style drops over
          hundreds of connections) gets served an error page instead *)
}

val cca_in : t -> Region.t -> string
(** Ground-truth CCA served towards a region. *)
