(* The durable journal behind `nebby serve`: append-only CRC-framed
   records under a schema-versioned header, torn-tail repair on open,
   canonical compaction. See journal.mli for the contract; the invariants
   that matter here are (1) every put is flushed, so a crash loses at most
   the record being written, and (2) compaction output is a pure function
   of the live key/value map, so recovery and re-runs converge to
   byte-identical files. *)

let schema_version = 1
let kind = "nebby_journal"

(* CRC-32 (IEEE, reflected), table-driven. Implemented locally: the
   container has no checksum library and the journal only needs a cheap,
   stable frame check to tell a torn write from a good record. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub s off len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (String.get s i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s 0 (String.length s)

let header_line =
  Obs.Json.to_string (Obs.Json.Obj (Obs.Versioned.fields ~kind ~version:schema_version))
  ^ "\n"

let payload_of ~key ~value =
  Obs.Json.to_string (Obs.Json.Obj [ ("key", Obs.Json.Str key); ("value", Obs.Json.Str value) ])

let frame payload = Printf.sprintf "%08x %s\n" (crc32 payload) payload

(* payload -> (key, value); raises Json.Parse_error on shape mismatch *)
let parse_payload payload =
  let j = Obs.Json.of_string payload in
  (Obs.Json.get_str "journal" "key" j, Obs.Json.get_str "journal" "value" j)

type t = {
  path : string;
  mutable oc : out_channel option;  (* append channel; None after close *)
  index : (string, int * int) Hashtbl.t;  (* key -> (payload offset, payload length) *)
  cache : (string, string) Hashtbl.t;
  cache_order : string Queue.t;  (* FIFO eviction order when bounded *)
  max_entries : int option;
  mutable size : int;  (* file length in bytes; next record's offset *)
  mutable torn : int;  (* tail records dropped on open *)
  lock : Mutex.t;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let path t = t.path
let torn_dropped t = t.torn

(* Bounded: FIFO by first entry into the cache. Only keys new to the
   cache are queued, so the queue always holds exactly the cached keys
   and its length is bounded by max_entries, not by the number of puts;
   a re-put only replaces the value. *)
let cache_add t key value =
  match t.max_entries with
  | None -> Hashtbl.replace t.cache key value
  | Some m ->
    if not (Hashtbl.mem t.cache key) then Queue.push key t.cache_order;
    Hashtbl.replace t.cache key value;
    if Hashtbl.length t.cache > max 1 m then
      Hashtbl.remove t.cache (Queue.pop t.cache_order)

(* hex frame check on the [n]-byte line at [off] of [s]: 8 lowercase hex
   digits, a space, then the payload *)
let parse_frame s off n =
  if n < 10 || s.[off + 8] <> ' ' then None
  else
    match int_of_string ("0x" ^ String.sub s off 8) with
    | crc ->
      if crc = crc32_sub s (off + 9) (n - 9) then Some (String.sub s (off + 9) (n - 9))
      else None
    | exception _ -> None

let write_all path content =
  Obs.Versioned.atomic_write path (fun oc -> output_string oc content)

let count_dropped_records text from =
  (* a torn tail is usually one partial record, but a corrupt line drops
     everything after it too; count line starts so the warning is honest *)
  let n = ref 0 in
  let i = ref from in
  let len = String.length text in
  while !i < len do
    incr n;
    i := (match String.index_from_opt text !i '\n' with Some nl -> nl + 1 | None -> len)
  done;
  !n

let open_append path = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

let open_ ?max_entries ?(on_warning = fun msg -> Printf.eprintf "%s\n%!" msg) path =
  let t =
    {
      path;
      oc = None;
      index = Hashtbl.create 256;
      cache = Hashtbl.create 256;
      cache_order = Queue.create ();
      max_entries;
      size = 0;
      torn = 0;
      lock = Mutex.create ();
    }
  in
  let text =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""
  in
  if text = "" then begin
    write_all path header_line;
    t.size <- String.length header_line
  end
  else begin
    (* header: must be a complete line with the right kind and version *)
    let header_end =
      match String.index_opt text '\n' with
      | Some nl -> nl + 1
      | None -> Obs.Json.shape_error path "journal header line is incomplete"
    in
    Obs.Versioned.check ~kind ~version:schema_version
      (Obs.Json.of_string (String.sub text 0 (header_end - 1)));
    (* replay records; stop at the first torn/corrupt one *)
    let len = String.length text in
    let pos = ref header_end in
    let good_end = ref header_end in
    let torn = ref false in
    while (not !torn) && !pos < len do
      match String.index_from_opt text !pos '\n' with
      | None -> torn := true (* no trailing newline: the write was cut mid-record *)
      | Some nl -> (
        match Option.map parse_payload (parse_frame text !pos (nl - !pos)) with
        | Some (key, value) ->
          Hashtbl.replace t.index key (!pos + 9, nl - !pos - 9);
          (* the frame's CRC was just checked; keep the value so reads
             need not go back to disk (later records win, as in put) *)
          cache_add t key value;
          pos := nl + 1;
          good_end := !pos
        | None | (exception Obs.Json.Parse_error _) -> torn := true)
    done;
    if !torn then begin
      let dropped = count_dropped_records text !good_end in
      t.torn <- dropped;
      on_warning
        (Printf.sprintf
           "journal %s: dropped %d torn tail record(s) (%d bytes at offset %d); resuming \
            from the last good record"
           path dropped (len - !good_end) !good_end);
      write_all path (String.sub text 0 !good_end);
      t.size <- !good_end
    end
    else t.size <- len
  end;
  t.oc <- Some (open_append path);
  t

let appender t =
  match t.oc with Some oc -> oc | None -> failwith ("journal " ^ t.path ^ " is closed")

let put t ~key ~value =
  with_lock t (fun () ->
      let oc = appender t in
      let payload = payload_of ~key ~value in
      output_string oc (frame payload);
      flush oc;
      Hashtbl.replace t.index key (t.size + 9, String.length payload);
      t.size <- t.size + String.length payload + 10;
      cache_add t key value)

(* Cache misses re-read the framed line from disk and re-verify the CRC:
   the frame was checked when the record entered the index, so a mismatch
   here means the file changed under us. *)
let read_from_disk t key off len =
  let line =
    In_channel.with_open_bin t.path (fun ic ->
        seek_in ic (off - 9);
        really_input_string ic (len + 9))
  in
  match Option.map parse_payload (parse_frame line 0 (len + 9)) with
  | Some (k, v) when k = key -> v
  | _ -> failwith (Printf.sprintf "journal %s: record for %S is corrupt on disk" t.path key)

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.cache key with
      | Some v -> Some v
      | None -> (
        match Hashtbl.find_opt t.index key with
        | None -> None
        | Some (off, len) ->
          let v = read_from_disk t key off len in
          cache_add t key v;
          Some v))

let mem t key = with_lock t (fun () -> Hashtbl.mem t.index key)
let length t = with_lock t (fun () -> Hashtbl.length t.index)

let sorted_keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.index [])

let keys t = with_lock t (fun () -> sorted_keys t)

let value_locked t key =
  match Hashtbl.find_opt t.cache key with
  | Some v -> v
  | None ->
    let off, len = Hashtbl.find t.index key in
    read_from_disk t key off len

let fold f t init =
  with_lock t (fun () ->
      List.fold_left (fun acc k -> f k (value_locked t k) acc) init (sorted_keys t))

let compact t =
  with_lock t (fun () ->
      let oc = appender t in
      (* materialize every live pair before touching the file *)
      let pairs = List.map (fun k -> (k, value_locked t k)) (sorted_keys t) in
      close_out_noerr oc;
      t.oc <- None;
      let buf = Buffer.create 4096 in
      Buffer.add_string buf header_line;
      let locs =
        List.map
          (fun (key, value) ->
            let payload = payload_of ~key ~value in
            let off = Buffer.length buf + 9 in
            Buffer.add_string buf (frame payload);
            (key, (off, String.length payload)))
          pairs
      in
      (* a failed write leaves the old file, index and size in place *)
      Fun.protect
        ~finally:(fun () -> t.oc <- Some (open_append t.path))
        (fun () ->
          Obs.Versioned.atomic_write t.path (fun oc -> Buffer.output_buffer oc buf);
          Hashtbl.reset t.index;
          List.iter (fun (key, loc) -> Hashtbl.replace t.index key loc) locs;
          t.size <- Buffer.length buf))

let close t =
  with_lock t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        flush oc;
        close_out_noerr oc;
        t.oc <- None)
