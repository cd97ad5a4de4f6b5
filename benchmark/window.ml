(* What one measured window of a workload reports, and the tally of the
   correctness checks made inside it. *)

type metric = { samples : float list; value : float }

let of_samples samples = { samples; value = Stats.median samples }

type t = {
  ops : int;  (** operations measured: trials, requests or passes *)
  p50_ms : metric;  (** median latency of the workload's timed operations *)
  ops_per_s : metric;
  exact : (string * Obs.Json.t) list;
      (** values that must repeat exactly for the same seed and flags *)
}

(* Every checked operation counts once in [attempted]; one that fails a
   check counts once in [failed], whatever else it got wrong. *)
type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let check t ok msg =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 10 then t.notes <- Lazy.force msg :: t.notes
  end

(* A failure that is not one operation's: an invariant of the whole
   window (conservation, zero compiles on a warm path, ...). *)
let violation t msg = check t false (lazy msg)

(* One workload: set up, measured windows, untimed checks after each
   window, and the per-layer numbers of a traced window. *)
module type S = sig
  type state

  val setup : seed:int -> quick:bool -> state
  val measure : state -> tally -> seconds:float -> traced:bool -> t

  val post_check : state -> tally -> unit
  (** Correctness work that must not count in the window's timings. *)

  val layers : state -> (string * float) list
  (** After a traced window: the workload's own layer numbers — values
      read from its responses and calls it replays through the layers. *)

  val teardown : state -> unit
end
