(* All runtime state is domain-local: each domain owns its own armed count
   and virtual-clock provider, so simulations running concurrently on
   worker domains can install their clocks and record telemetry without
   racing. A freshly spawned domain starts disarmed; Collector arms pool
   workers of an armed caller. *)
type level = Quiet | Normal | Debug

type level_cell = { mutable current : level }

type state = {
  mutable armed_count : int;
  mutable vclock : (unit -> float) option;
  cell : level_cell;
}

let key =
  Domain.DLS.new_key (fun () ->
      { armed_count = 0; vclock = None; cell = { current = Normal } })

let state () = Domain.DLS.get key

let level_cell () = (state ()).cell
let level () = (state ()).cell.current
let set_level l = (state ()).cell.current <- l

let armed () = (state ()).armed_count > 0
let arm () = (state ()).armed_count <- (state ()).armed_count + 1

let disarm () =
  let s = state () in
  if s.armed_count > 0 then s.armed_count <- s.armed_count - 1

let set_virtual_clock p = (state ()).vclock <- p
let virtual_clock () = (state ()).vclock
let virtual_now () = match (state ()).vclock with None -> None | Some f -> Some (f ())
