(* The durable journal behind `nebby serve`: append-only CRC-framed
   records under a schema-versioned header, torn-tail repair on open,
   canonical compaction. See journal.mli for the contract; the invariants
   that matter here are (1) every put, and every group, is flushed before
   it returns, so a crash loses at most what is being written, and (2)
   compaction output is a pure function of the live key/value map, so
   recovery and re-runs converge to byte-identical files. *)

let schema_version = 1
let kind = "nebby_journal"

(* CRC-32 (IEEE, reflected), slicing-by-8: table [k] advances a byte
   through k more zero bytes, so one step folds eight bytes with eight
   independent lookups. Implemented locally: the container has no
   checksum library and the journal only needs a cheap, stable frame
   check to tell a torn write from a good record. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let crc32 s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Journal.crc32";
  let t = crc_tables in
  let c = ref 0xFFFFFFFF and i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let lo =
      !c lxor (String.get_uint16_le s !i lor (String.get_uint16_le s (!i + 2) lsl 16))
    and hi = String.get_uint16_le s (!i + 4) lor (String.get_uint16_le s (!i + 6) lsl 16) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let header_line =
  Obs.Json.to_string (Obs.Json.Obj (Obs.Versioned.fields ~kind ~version:schema_version))
  ^ "\n"

(* Writing ------------------------------------------------------------------ *)

(* The frame put writes, "<crc32 as 8 lowercase hex digits> <payload>\n"
   with the payload {"key":K,"value":V} in Obs.Json's spelling, built in
   a handle's scratch: the payload is encoded into [payload], copied
   into [frame] after 9 bytes left for the CRC and the space, and
   checksummed there. Returns the payload's length; the frame is the
   first length + 10 bytes of [frame]. *)
type scratch = { payload : Buffer.t; mutable frame : Bytes.t }

let frame_record sc ~key ~value =
  let b = sc.payload in
  Buffer.clear b;
  Buffer.add_string b "{\"key\":";
  Obs.Json.escape b key;
  Buffer.add_string b ",\"value\":";
  Obs.Json.escape b value;
  Buffer.add_char b '}';
  let n = Buffer.length b in
  if Bytes.length sc.frame < n + 10 then sc.frame <- Bytes.create (2 * (n + 10));
  let f = sc.frame in
  Buffer.blit b 0 f 9 n;
  let crc = crc32 (Bytes.unsafe_to_string f) 9 n in
  for k = 0 to 7 do
    Bytes.unsafe_set f k "0123456789abcdef".[(crc lsr (4 * (7 - k))) land 0xf]
  done;
  Bytes.unsafe_set f 8 ' ';
  Bytes.unsafe_set f (n + 9) '\n';
  n

(* Reading ------------------------------------------------------------------ *)

(* The general reader, for lines in any other spelling: 8 characters
   that int_of_string reads as a hex CRC of the payload ("DEADBEEF" and
   "1234_567" pass, as hand-written records may have them), a space, then
   a JSON object with string fields "key" and "value". The [n]-byte line
   starts at [off] of [s]. None (or Json.Parse_error) when torn. *)
let parse_frame s off n =
  if n < 10 || s.[off + 8] <> ' ' then None
  else
    match int_of_string ("0x" ^ String.sub s off 8) with
    | crc ->
      if crc = crc32 s (off + 9) (n - 9) then Some (String.sub s (off + 9) (n - 9))
      else None
    | exception _ -> None

let parse_payload payload =
  let j = Obs.Json.of_string payload in
  (Obs.Json.get_str "journal" "key" j, Obs.Json.get_str "journal" "value" j)

let general_line s off n =
  match parse_frame s off n with
  | Some payload -> ( try Some (parse_payload payload) with Obs.Json.Parse_error _ -> None)
  | None -> None

(* The one-pass reader of put's own spelling. [scan_line] accepts exactly
   the lines frame_record writes: 8 lowercase hex digits that are the
   payload's CRC, a space, and {"key":K,"value":V} whose strings use only
   the escapes Obs.Json.escape writes (backslash before a quote, a
   backslash, n, r or t, and a lowercase u00xx for the other control
   bytes and DEL). Accepting a line thus proves it canonical; it raises
   Not_put on anything else, which the general reader then decides. *)
exception Not_put

type scan = { text : string; mutable at : int; mutable stop : int }

let scan_literal sc lit =
  let n = String.length lit in
  if sc.at + n > sc.stop then raise_notrace Not_put;
  for k = 0 to n - 1 do
    if String.unsafe_get sc.text (sc.at + k) <> String.unsafe_get lit k then
      raise_notrace Not_put
  done;
  sc.at <- sc.at + n

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | _ -> raise_notrace Not_put

(* the byte a \u00xx escape at [i] (its backslash) stands for, if
   Obs.Json.escape writes that byte so *)
let u_escape s i =
  if s.[i + 2] <> '0' || s.[i + 3] <> '0' then raise_notrace Not_put;
  let code = (hex_value s.[i + 4] * 16) + hex_value s.[i + 5] in
  if (code < 0x20 && code <> 0x09 && code <> 0x0a && code <> 0x0d) || code = 0x7f then
    Char.chr code
  else raise_notrace Not_put

(* a string literal at the cursor, decoded; one pass finds its end and
   checks its escapes, a second decodes only when it has escapes *)
let scan_string sc =
  let s = sc.text in
  if sc.at >= sc.stop || String.unsafe_get s sc.at <> '"' then raise_notrace Not_put;
  let start = sc.at + 1 in
  let i = ref start and saved = ref 0 in
  let closed = ref false in
  while not !closed do
    if !i >= sc.stop then raise_notrace Not_put;
    match String.unsafe_get s !i with
    | '"' -> closed := true
    | '\\' ->
      if !i + 1 >= sc.stop then raise_notrace Not_put;
      (match String.unsafe_get s (!i + 1) with
      | '"' | '\\' | 'n' | 'r' | 't' ->
        i := !i + 2;
        incr saved
      | 'u' ->
        if !i + 6 > sc.stop then raise_notrace Not_put;
        ignore (u_escape s !i);
        i := !i + 6;
        saved := !saved + 5
      | _ -> raise_notrace Not_put)
    | c when c < ' ' || c = '\127' -> raise_notrace Not_put
    | _ -> incr i
  done;
  let stop = !i in
  sc.at <- stop + 1;
  if !saved = 0 then String.sub s start (stop - start)
  else begin
    let b = Bytes.create (stop - start - !saved) in
    let i = ref start and o = ref 0 in
    while !i < stop do
      let c = String.unsafe_get s !i in
      if c <> '\\' then begin
        Bytes.unsafe_set b !o c;
        incr i
      end
      else begin
        (match String.unsafe_get s (!i + 1) with
        | 'u' ->
          Bytes.unsafe_set b !o (u_escape s !i);
          i := !i + 6
        | c ->
          Bytes.unsafe_set b !o
            (match c with 'n' -> '\n' | 'r' -> '\r' | 't' -> '\t' | c -> c);
          i := !i + 2)
      end;
      incr o
    done;
    Bytes.unsafe_to_string b
  end

let scan_line sc off n =
  if n < 10 || String.unsafe_get sc.text (off + 8) <> ' ' then raise_notrace Not_put;
  let crc = ref 0 in
  for k = 0 to 7 do
    crc := (!crc lsl 4) lor hex_value (String.unsafe_get sc.text (off + k))
  done;
  if !crc <> crc32 sc.text (off + 9) (n - 9) then raise_notrace Not_put;
  sc.at <- off + 9;
  sc.stop <- off + n;
  scan_literal sc "{\"key\":";
  let key = scan_string sc in
  scan_literal sc ",\"value\":";
  let value = scan_string sc in
  scan_literal sc "}";
  if sc.at <> sc.stop then raise_notrace Not_put;
  (key, value)

(* The replay: calls [f key value ~off ~len ~canonical] on each good
   record of [text] from the line start [from], [off] and [len] being
   its payload's offset and length, and returns where the good records
   end: [String.length text], or the start of the first line that is
   incomplete, fails its CRC or does not parse. A line put's scan
   accepts is canonical; any other goes through the general reader
   ([general_only] sends every line there) and is marked not
   canonical. *)
let replay_records ?(general_only = false) text from f =
  let sc = { text; at = 0; stop = 0 } in
  let len = String.length text in
  let rec go pos =
    if pos >= len then len
    else
      match String.index_from text pos '\n' with
      | exception Not_found -> pos (* no trailing newline: the write was cut mid-record *)
      | nl -> (
        let n = nl - pos and off = pos + 9 in
        match if general_only then raise_notrace Not_put else scan_line sc pos n with
        | key, value ->
          f key value ~off ~len:(n - 9) ~canonical:true;
          go (nl + 1)
        | exception Not_put -> (
          match general_line text pos n with
          | Some (key, value) ->
            f key value ~off ~len:(n - 9) ~canonical:false;
            go (nl + 1)
          | None -> pos))
  in
  go from

type record = { key : string; value : string; off : int; len : int; canonical : bool }

let replay ?general_only text from =
  let acc = ref [] in
  let stop =
    replay_records ?general_only text from (fun key value ~off ~len ~canonical ->
        acc := { key; value; off; len; canonical } :: !acc)
  in
  (List.rev !acc, stop)

(* The table ---------------------------------------------------------------- *)

(* One entry per live key: the key, where its latest record sits (its
   payload's offset and length; the line starts 9 bytes earlier and ends
   with a newline), whether that whole line is canonical, and its value
   when cached ([uncached] otherwise). Re-pointed in place by
   compaction. *)
type entry = {
  key : string;
  mutable off : int;
  mutable len : int;
  mutable canonical : bool;
  mutable value : string;
}

(* An entry's value when it is not cached: a string of the journal's
   own, told apart by physical equality, so that caching a value wraps
   it in no option. *)
let uncached = Bytes.to_string (Bytes.of_string "(not cached)")

type t = {
  path : string;
  mutable oc : out_channel option;  (* append channel; None after close *)
  table : (string, entry) Hashtbl.t;
  mutable order : entry array;  (* the first [Hashtbl.length table] slots: live entries *)
  cached : entry Queue.t;  (* bounded: entries holding a value, first cached first *)
  max_entries : int option;
  scratch : scratch;  (* put's and compaction's framing, under the lock *)
  mutable size : int;  (* file length in bytes; next record's offset *)
  mutable torn : int;  (* tail records dropped on open *)
  lock : Mutex.t;
}

let with_lock t f = Mutex.protect t.lock f
let torn_dropped t = t.torn

(* Bounded: FIFO by first entry into the cache. Only entries new to the
   cache are queued, so the queue always holds exactly the cached
   entries and its length is bounded by max_entries, not by the number
   of puts; a re-put only replaces the value. *)
let cache t e value =
  (match t.max_entries with
  | Some m when e.value == uncached ->
    Queue.push e t.cached;
    if Queue.length t.cached > max 1 m then (Queue.pop t.cached).value <- uncached
  | _ -> ());
  e.value <- value

(* the latest record for [key] is now [len] payload bytes at [off]; a
   new key's entry goes to the end of [order] *)
let set_latest t key value ~off ~len ~canonical =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    e.off <- off;
    e.len <- len;
    e.canonical <- canonical;
    cache t e value
  | None ->
    let e = { key; off; len; canonical; value = uncached } in
    let live = Hashtbl.length t.table in
    if live = Array.length t.order then begin
      let grown = Array.make (max 256 (2 * live)) e in
      Array.blit t.order 0 grown 0 live;
      t.order <- grown
    end;
    t.order.(live) <- e;
    Hashtbl.add t.table key e;
    cache t e value

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
  let t =
    {
      path;
      oc = None;
      (* sized for records of about 128 bytes (a serve verdict record
         takes more), so replaying a store does not resize the table *)
      table = Hashtbl.create (max 256 (String.length text / 128));
      order = [||];
      cached = Queue.create ();
      max_entries;
      scratch = { payload = Buffer.create 256; frame = Bytes.create 256 };
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
    (* replay records, keeping each value: its frame's CRC was just
       checked, so reads need not go back to disk (later records win, as
       in put); stop at the first torn/corrupt one *)
    let len = String.length text in
    let good_end = replay_records text header_end (set_latest t) in
    if good_end < len then begin
      let dropped = count_dropped_records text good_end in
      t.torn <- dropped;
      on_warning
        (Printf.sprintf
           "journal %s: dropped %d torn tail record(s) (%d bytes at offset %d); resuming \
            from the last good record"
           path dropped (len - good_end) good_end);
      write_all path (String.sub text 0 good_end)
    end;
    t.size <- good_end
  end;
  t.oc <- Some (open_append path);
  t

let appender t =
  match t.oc with Some oc -> oc | None -> failwith ("journal " ^ t.path ^ " is closed")

(* put's and put_group's one record writer: frames a record into the
   append channel, unflushed, and returns its payload's length *)
let write_record t oc ~key ~value =
  let len = frame_record t.scratch ~key ~value in
  output oc t.scratch.frame 0 (len + 10);
  len

(* the record just flushed, [len] payload bytes at the end of the file *)
let appended t ~key ~value len =
  set_latest t key value ~off:(t.size + 9) ~len ~canonical:true;
  t.size <- t.size + len + 10

let put t ~key ~value =
  with_lock t (fun () ->
      let oc = appender t in
      let len = write_record t oc ~key ~value in
      flush oc;
      appended t ~key ~value len)

(* The table learns the group only once it is flushed, as with put. *)
let put_group t records =
  with_lock t (fun () ->
      let oc = appender t in
      let lens = List.map (fun (key, value) -> write_record t oc ~key ~value) records in
      flush oc;
      List.iter2 (fun (key, value) len -> appended t ~key ~value len) records lens)

(* Cache misses re-read the framed line from disk and re-verify the CRC:
   the frame was checked when the record entered the table, so a
   mismatch here means the file changed under us. *)
let read_from_disk t key e =
  let line =
    In_channel.with_open_bin t.path (fun ic ->
        seek_in ic (e.off - 9);
        really_input_string ic (e.len + 9))
  in
  match general_line line 0 (e.len + 9) with
  | Some (k, v) when k = key -> v
  | _ -> failwith (Printf.sprintf "journal %s: record for %S is corrupt on disk" t.path key)

let value_locked t key e =
  if e.value != uncached then e.value
  else
    let v = read_from_disk t key e in
    cache t e v;
    v

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None -> None
      | Some e -> Some (value_locked t key e))

let mem t key = with_lock t (fun () -> Hashtbl.mem t.table key)
let length t = with_lock t (fun () -> Hashtbl.length t.table)

let count_prefix t prefix =
  with_lock t (fun () ->
      let n = ref 0 in
      for i = 0 to Hashtbl.length t.table - 1 do
        if String.starts_with ~prefix t.order.(i).key then incr n
      done;
      !n)

(* Live entries in ascending key order; keys are unique. The sort starts
   from first-insertion order: a store opened after a compaction inserts
   its keys sorted and a carried epoch appends its keys in rank order, so
   stable_sort (a merge sort) meets long sorted runs. On 40,000 serve
   keys it takes about a quarter of the time it takes from the table's
   hash order. *)
let sorted_entries t =
  let live = Array.sub t.order 0 (Hashtbl.length t.table) in
  Array.stable_sort (fun a b -> String.compare a.key b.key) live;
  live

let keys t =
  with_lock t (fun () -> Array.fold_right (fun e acc -> e.key :: acc) (sorted_entries t) [])

let fold f t init =
  with_lock t (fun () ->
      Array.fold_left (fun acc e -> f e.key (value_locked t e.key e) acc) init (sorted_entries t))

(* Canonical records' lines are copied from the file as they stand (their
   CRC was checked when they entered the table); only the records open
   found in another spelling are decoded and framed again. *)
let compact t =
  with_lock t (fun () ->
      let oc = appender t in
      close_out_noerr oc;
      t.oc <- None;
      let live = sorted_entries t in
      let offs = Array.make (Array.length live) 0 and lens = Array.make (Array.length live) 0 in
      (* a failed read or write leaves the old file, table and size in place *)
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
                (fun i e ->
                  let len =
                    if e.canonical then begin
                      output_substring oc text (e.off - 9) (e.len + 10);
                      e.len
                    end
                    else begin
                      let _, value = parse_payload (String.sub text e.off e.len) in
                      let len = frame_record t.scratch ~key:e.key ~value in
                      output oc t.scratch.frame 0 (len + 10);
                      len
                    end
                  in
                  offs.(i) <- !size + 9;
                  lens.(i) <- len;
                  size := !size + len + 10)
                live);
          Array.iteri
            (fun i e ->
              e.off <- offs.(i);
              e.len <- lens.(i);
              e.canonical <- true)
            live;
          (* the file's order: the next sort starts from sorted runs *)
          t.order <- live;
          t.size <- !size))

let close t =
  with_lock t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        flush oc;
        close_out_noerr oc;
        t.oc <- None)
