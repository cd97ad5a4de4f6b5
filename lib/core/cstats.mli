(** Compilation-time accounting (Table 4 / Table 5). *)

type t = {
  mutable t_ss : float;  (** SS.getDims + SS.slice, seconds *)
  mutable t_ts : float;  (** TS.getPriorDim + TS.slice (postposition + update functions) *)
  mutable t_enum : float;
      (** enumCfg: search-space enumeration, lowering and the resource
          check, plus the one lowering of each reused decision *)
  mutable t_tune : float;  (** candidate evaluation on the cost model *)
  mutable t_total : float;
  mutable n_cfgs : int;
      (** candidates the tuner's fold costed. Every feasible candidate
          was already lowered, during enumeration (once per unit-block
          mask, the rest instantiated: {!Lower.lowerer}) *)
  mutable n_early_quit : int;
      (** candidates the fold skipped because their analytic lower-bound
          cost already exceeded the incumbent best ({!Tuner.pick_best}'s
          pruning rule). A {!Tuner.pick_best} call that costs on helper
          domains (64+ candidates, on the main domain, more than one job)
          has costed these too, up front; they count here because the
          fold did not use their cost *)
  mutable n_reused : int;
      (** candidates that a reused tuning decision stood for: when a
          sub-graph has the structure of one tuned earlier in the same
          compile, {!Spacefusion.compile} takes that decision instead of
          enumerating and costing, and adds here the costed and pruned
          candidates the decision was made from. [n_cfgs + n_early_quit +
          n_reused] is the count a compile without reuse would cost and
          prune *)
  mutable n_partitions : int;  (** Algorithm-2 rounds taken *)
}

type phase = Ss | Ts | Enum | Tune

val create : unit -> t

val timed : t -> phase -> (unit -> 'a) -> 'a

val publish : t -> unit
(** Mirror this record into the process-wide {!Obs.Metrics} registry:
    phase times into the [compile.*_seconds] histograms, candidate counts
    into [tuner.costed] / [tuner.pruned] / [tuner.reused], Algorithm-2
    rounds into [sched.partitions], plus one [compile.count] tick. Plan-cache
    counters are not compile stats: {!Runtime.Plan_cache} keeps them and
    feeds [cache.*] at event time. Called once per
    {!Spacefusion.compile}. *)

val pp : Format.formatter -> t -> unit
