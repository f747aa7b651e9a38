(* A binary min-heap over three parallel arrays, so pushing an event
   allocates nothing: no entry record and no boxed time. *)
type 'a t = {
  mutable times : float array;
  mutable orders : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_order : int;
}

let create () = { times = [||]; orders = [||]; values = [||]; size = 0; next_order = 0 }
let is_empty t = t.size = 0
let length t = t.size

let reserve t =
  let order = t.next_order in
  t.next_order <- order + 1;
  order

let earlier t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.orders.(i) < t.orders.(j))

let swap t i j =
  let time = t.times.(i) and order = t.orders.(i) and value = t.values.(i) in
  t.times.(i) <- t.times.(j);
  t.orders.(i) <- t.orders.(j);
  t.values.(i) <- t.values.(j);
  t.times.(j) <- time;
  t.orders.(j) <- order;
  t.values.(j) <- value

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && earlier t l i then l else i in
  let smallest = if r < t.size && earlier t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

(* The value being pushed fills the fresh slots, so no dummy ['a] is
   needed. *)
let grow t value =
  let cap = max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0.0 and orders = Array.make cap 0 in
  let values = Array.make cap value in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.orders 0 orders 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.orders <- orders;
  t.values <- values

let push_reserved t ~time ~order value =
  if order >= t.next_order then invalid_arg "Event_queue.push_reserved: order was not reserved";
  if t.size >= Array.length t.times then grow t value;
  let i = t.size in
  t.times.(i) <- time;
  t.orders.(i) <- order;
  t.values.(i) <- value;
  t.size <- i + 1;
  sift_up t i

let push t ~time value = push_reserved t ~time ~order:(reserve t) value

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.times.(0)

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let top = t.values.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.times.(0) <- t.times.(last);
    t.orders.(0) <- t.orders.(last);
    t.values.(0) <- t.values.(last);
    sift_down t 0
  end;
  top
