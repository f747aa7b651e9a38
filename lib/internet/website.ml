type cdn = Cloudflare | Akamai | Self_hosted | Other_cdn

type t = {
  rank : int;
  name : string;
  cdn : cdn;
  page_bytes : int;
  deployments : (Region.t * string) list;
  quic : bool;
  quic_cca : string option;
  noise_factor : float;
  ddos_sensitivity : float;
}

let cca_in t region =
  match List.assoc_opt region t.deployments with
  | Some cca -> cca
  | None -> ( match t.deployments with (_, cca) :: _ -> cca | [] -> "cubic")
