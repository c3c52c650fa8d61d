(** The benchmark's three workloads, generated from a seed.

    Each workload is one closed-loop client issuing fixed sequences of
    operations; an {e episode} runs one sequence against a freshly built
    system, and a {e cycle} runs every sequence once. The runner repeats
    cycles until the run's time is spent. The system receives only the
    generated data and operations.

    The seed renames the generated identifiers by a seeded permutation, in
    the tables and the operations alike: different seeds give different
    but isomorphic inputs, so every run does the same work. *)

type size =
  | Full  (** the sizes the benchmark measures *)
  | Tiny  (** a few operations over small data, for smoke tests *)

type op =
  | Goal of Braid_logic.Atom.t  (** an AI goal solved to completion by the IE *)
  | Read of Braid_caql.Ast.conj  (** a PSJ query answered by [Cms.query] *)
  | Insert of string * Braid_relalg.Tuple.t  (** [Cms.apply_insert] *)
  | Delete of string * Braid_relalg.Tuple.t  (** [Cms.apply_delete]; the tuple is present *)

type setup =
  | Ie of {
      kb : unit -> Braid_logic.Kb.t;
      strategy : Braid_ie.Strategy.kind;
      config : Braid_planner.Qpo.config;
    }  (** [System.build]: IE over the CMS over the remote *)
  | Cms_direct of { capacity_bytes : int; maintain : bool }
      (** [Server.create] + [Engine.load] + [Cms.create]: the CMS as a component *)

type t = {
  name : string;
  setup : setup;
  tables : unit -> Braid_relalg.Relation.t list;
      (** generates the tables afresh, the same on every call: each build
          loads its own, and the benchmark holds none between builds *)
  episodes : op array list;
      (** the op sequences, each run once per cycle on its own fresh system *)
  cycle_s : float;
      (** seconds budgeted per cycle: a run of [s] seconds makes
          [s / cycle_s] cycles, rounded, at least two. A budget may be
          below a cycle's real time, to buy the repeats that steady
          per-op means need. *)
}

val names : string list
val make : name:string -> seed:int -> size:size -> t
(** @raise Invalid_argument on an unknown name. *)

val is_read : op -> bool
(** Goals and reads are the operations whose latency is reported as
    [op_ms_*]; inserts and deletes are writes. *)
