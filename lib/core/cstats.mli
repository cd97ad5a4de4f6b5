(** Compilation-time accounting (Table 4 / Table 5). *)

type t = {
  mutable t_ss : float;  (** SS.getDims + SS.slice, seconds *)
  mutable t_ts : float;  (** TS.getPriorDim + TS.slice (postposition + update functions) *)
  mutable t_enum : float;  (** enumCfg: search-space enumeration + feasibility *)
  mutable t_tune : float;  (** candidate evaluation on the cost model *)
  mutable t_total : float;
  mutable n_cfgs : int;  (** configurations fully lowered and costed *)
  mutable n_early_quit : int;
      (** configurations skipped without lowering: their analytic
          lower-bound cost already exceeded the incumbent best
          ({!Tuner.pick_best}'s pruning rule) *)
  mutable n_partitions : int;  (** Algorithm-2 rounds taken *)
}

type phase = Ss | Ts | Enum | Tune

val create : unit -> t

val timed : t -> phase -> (unit -> 'a) -> 'a

val publish : t -> unit
(** Mirror this record into the process-wide {!Obs.Metrics} registry:
    phase times into the [compile.*_seconds] histograms, candidate counts
    into [tuner.costed] / [tuner.pruned], Algorithm-2 rounds into
    [sched.partitions], plus one [compile.count] tick. Plan-cache
    counters are not compile stats: {!Runtime.Plan_cache} keeps them and
    feeds [cache.*] at event time. Called once per
    {!Spacefusion.compile}. *)

val pp : Format.formatter -> t -> unit
