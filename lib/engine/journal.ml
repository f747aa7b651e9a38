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

(* {"key":K,"value":V}, the bytes Obs.Json.to_string writes for that
   object, without building it *)
let payload_of ~key ~value =
  let buf = Buffer.create (String.length key + String.length value + 24) in
  Buffer.add_string buf "{\"key\":";
  Obs.Json.escape buf key;
  Buffer.add_string buf ",\"value\":";
  Obs.Json.escape buf value;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* "<crc32 as 8 lowercase hex digits> <payload>\n", with no format string *)
let output_frame oc payload =
  let crc = crc32 payload in
  for shift = 7 downto 0 do
    output_char oc "0123456789abcdef".[(crc lsr (4 * shift)) land 0xf]
  done;
  output_char oc ' ';
  output_string oc payload;
  output_char oc '\n'

(* payload -> (key, value); raises Json.Parse_error on shape mismatch *)
let parse_payload payload =
  let j = Obs.Json.of_string payload in
  (Obs.Json.get_str "journal" "key" j, Obs.Json.get_str "journal" "value" j)

(* Where a key's latest record sits: its payload's offset and length (the
   line starts 9 bytes earlier and ends with a newline), and whether the
   whole line is the canonical frame of its key and value. Re-pointed in
   place by compaction. *)
type loc = { mutable off : int; mutable len : int; mutable canonical : bool }

type t = {
  path : string;
  mutable oc : out_channel option;  (* append channel; None after close *)
  index : (string, loc) Hashtbl.t;
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

(* frame check on the [n]-byte line at [off] of [s]: 8 characters that
   int_of_string reads as a hex CRC of the payload ("DEADBEEF" and
   "1234_567" pass, as hand-written records may have them), a space, then
   the payload *)
let parse_frame s off n =
  if n < 10 || s.[off + 8] <> ' ' then None
  else
    match int_of_string ("0x" ^ String.sub s off 8) with
    | crc ->
      if crc = crc32_sub s (off + 9) (n - 9) then Some (String.sub s (off + 9) (n - 9))
      else None
    | exception _ -> None

(* the CRC-checked line with a [len]-byte payload at [off] is byte for
   byte what put writes: lowercase hex CRC, canonical JSON payload *)
let canonical_line text off len ~key ~value =
  let lower_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  String.for_all lower_hex (String.sub text (off - 9) 8)
  && String.equal (payload_of ~key ~value) (String.sub text off len)

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
  let text =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""
  in
  (* sized for records of about 128 bytes (a serve verdict record takes
     more), so replaying a store does not resize the tables *)
  let expected = max 256 (String.length text / 128) in
  let t =
    {
      path;
      oc = None;
      index = Hashtbl.create expected;
      cache =
        Hashtbl.create (match max_entries with Some m -> min (max 1 m) expected | None -> expected);
      cache_order = Queue.create ();
      max_entries;
      size = 0;
      torn = 0;
      lock = Mutex.create ();
    }
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
          let off = !pos + 9 and len = nl - !pos - 9 in
          Hashtbl.replace t.index key
            { off; len; canonical = canonical_line text off len ~key ~value };
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
      output_frame oc payload;
      flush oc;
      let len = String.length payload in
      Hashtbl.replace t.index key { off = t.size + 9; len; canonical = true };
      t.size <- t.size + len + 10;
      cache_add t key value)

(* Cache misses re-read the framed line from disk and re-verify the CRC:
   the frame was checked when the record entered the index, so a mismatch
   here means the file changed under us. *)
let read_from_disk t key { off; len; _ } =
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
        | Some loc ->
          let v = read_from_disk t key loc in
          cache_add t key v;
          Some v))

let mem t key = with_lock t (fun () -> Hashtbl.mem t.index key)
let length t = with_lock t (fun () -> Hashtbl.length t.index)

let count_prefix t prefix =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun k _ n -> if String.starts_with ~prefix k then n + 1 else n)
        t.index 0)

let sorted_keys t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.index [])

let keys t = with_lock t (fun () -> sorted_keys t)

let value_locked t key =
  match Hashtbl.find_opt t.cache key with
  | Some v -> v
  | None -> read_from_disk t key (Hashtbl.find t.index key)

let fold f t init =
  with_lock t (fun () ->
      List.fold_left (fun acc k -> f k (value_locked t k) acc) init (sorted_keys t))

(* Canonical records' lines are copied from the file as they stand (their
   CRC was checked when they entered the index); only the records open
   found in another spelling are decoded and framed again. *)
let compact t =
  with_lock t (fun () ->
      let oc = appender t in
      close_out_noerr oc;
      t.oc <- None;
      let live = Array.of_list (Hashtbl.fold (fun k loc acc -> (k, loc) :: acc) t.index []) in
      (* keys are unique; stable_sort is a merge sort, cheaper than sort's heap sort *)
      Array.stable_sort (fun (a, _) (b, _) -> String.compare a b) live;
      let offs = Array.make (Array.length live) 0 and lens = Array.make (Array.length live) 0 in
      (* a failed read or write leaves the old file, index and size in place *)
      Fun.protect
        ~finally:(fun () -> t.oc <- Some (open_append t.path))
        (fun () ->
          let text = In_channel.with_open_bin t.path In_channel.input_all in
          if String.length text <> t.size then
            failwith (Printf.sprintf "journal %s changed on disk" t.path);
          let size = ref (String.length header_line) in
          Obs.Versioned.atomic_write t.path (fun oc ->
              output_string oc header_line;
              Array.iteri
                (fun i (key, loc) ->
                  let len =
                    if loc.canonical then begin
                      output_substring oc text (loc.off - 9) (loc.len + 10);
                      loc.len
                    end
                    else begin
                      let _, value = parse_payload (String.sub text loc.off loc.len) in
                      let payload = payload_of ~key ~value in
                      output_frame oc payload;
                      String.length payload
                    end
                  in
                  offs.(i) <- !size + 9;
                  lens.(i) <- len;
                  size := !size + len + 10)
                live);
          Array.iteri
            (fun i (_, loc) ->
              loc.off <- offs.(i);
              loc.len <- lens.(i);
              loc.canonical <- true)
            live;
          t.size <- !size))

let close t =
  with_lock t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        flush oc;
        close_out_noerr oc;
        t.oc <- None)
