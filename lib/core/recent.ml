(* A ring of (key, value) slots per domain: slots fill from 0, then the
   write cursor wraps and overwrites the oldest. The ring holds its keys
   strongly, so a key cannot be collected and its address reused while it
   is cached. *)
type ('k, 'v) ring = { slots : ('k * 'v) option array; mutable next : int }
type ('k, 'v) t = ('k, 'v) ring Domain.DLS.key

let create capacity =
  if capacity < 1 then invalid_arg "Recent.create: capacity must be positive";
  Domain.DLS.new_key (fun () -> { slots = Array.make capacity None; next = 0 })

let find_or_add t key compute =
  let ring = Domain.DLS.get t in
  let n = Array.length ring.slots in
  (* newest first; an empty slot means the ring has not wrapped yet and
     nothing older exists *)
  let rec find age =
    if age = n then None
    else
      match ring.slots.((ring.next - 1 - age + (2 * n)) mod n) with
      | Some (k, v) when k == key -> Some v
      | Some _ -> find (age + 1)
      | None -> None
  in
  match find 0 with
  | Some v -> v
  | None ->
    let v = compute () in
    ring.slots.(ring.next) <- Some (key, v);
    ring.next <- (ring.next + 1) mod n;
    v
