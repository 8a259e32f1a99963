(** The chaos action vocabulary: everything a fault timeline can do to a
    running cluster.

    Actions are declarative values; {!Chaos.run} validates and applies
    them at their scheduled times from the cluster's own event engine, so
    a timeline perturbs the simulation exactly like hand-written test
    code would — deterministically, for every engine shard count. *)

type t =
  | Kill of int list  (** fail-stop the listed servers ({!Terradir.Cluster.kill}) *)
  | Revive of int list
  | Revive_killed
      (** revive every server this timeline has killed so far (fail-stop,
          fraction, or graceful) and not yet revived, in ascending id
          order — the bookkeeping-free complement of {!Kill_fraction} *)
  | Graceful_leave of int list
      (** planned departures: owned nodes are handed to random alive
          peers before the fail-stop ({!Terradir.Cluster.graceful_leave}) *)
  | Kill_fraction of { fraction : float; salt : int }
      (** kill [fraction] of the {e currently alive} servers, picked by a
          private [Splitmix] stream seeded from [salt] — deterministic,
          independent of the engine shard count, and never taking the
          last alive server *)
  | Partition of { tag : string; a : int list; b : int list; directed : bool }
      (** install a network partition and remember it under [tag] *)
  | Heal of string  (** heal the partition installed under this tag *)
  | Heal_all
  | Set_loss of float  (** iid per-message loss probability, in [0, 1] *)
  | Set_jitter of float
      (** switch the network latency to uniform
          [network_delay ± jitter]; [0.] restores the constant-delay
          model.  Bounded by the configured [net_jitter] — see the
          determinism rule in {!Chaos.run} *)
  | Flash_crowd of { phases : Terradir_workload.Stream.phase list; seed : int }
      (** start an extra query stream (its own seed and phases) at the
          action time, on top of the base workload *)
  | Rate_shift of float
      (** scale the base workload's arrival rate by this factor from now
          on ({!Terradir_workload.Scenario.set_rate_factor}) *)

val kind : t -> string
(** Stable snake_case tag ("kill", "partition", ...) used in the report's
    event log and the obs flight recorder. *)

val detail : t -> string
(** Comma-free [k=v] rendering of the payload (embeds in CSV cells and
    the JSON report). *)

val is_recovery : t -> bool
(** Whether the action starts a time-to-reconvergence clock in the
    resilience report: [Revive]/[Revive_killed]/[Heal]/[Heal_all]. *)
