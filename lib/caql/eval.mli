(** CAQL evaluation.

    Two evaluation modes, matching the CMS's two data representations
    (§5.1): {b eager} evaluation producing a full extension, and {b lazy}
    evaluation producing a generator that computes one solution tuple on
    demand (depth-first with chronological backtracking over the atom
    list).

    Both are parameterized by [source], the function that resolves a
    relation occurrence to data — the caller (Cache Manager, remote engine
    wrapper, or test harness) decides where the extension comes from. *)

exception Unsafe of string
(** Raised when a head or comparison variable is not range-restricted. *)

val conj :
  ?index:(Braid_logic.Atom.t -> int list -> Braid_relalg.Index.t option) ->
  source:(Braid_logic.Atom.t -> Braid_relalg.Relation.t) ->
  schema_of:(string -> Braid_relalg.Schema.t option) ->
  Ast.conj ->
  Braid_relalg.Relation.t
(** Eager bottom-up evaluation: left-to-right hash-join pipeline with
    pushed-down constant selections and comparisons. An atom without a
    local selection (no constant, no repeated variable) is joined on its
    extension as-is, without a filtering copy.

    [index a cols], when given, may supply a hash index on the columns
    [cols] of the extension [source a] returns, for an atom equi-joined on
    those columns that has no local selection. The step then probes the
    index for each accumulated row instead of building a fresh hash table
    over the extension. The index must hold exactly the tuples of
    [source a]: a caller that keeps indexes across calls (the semi-naive
    fixpoint in [Braid_ie.Datalog]) maintains them as the relation grows.
    Returning [None] falls back to the hash join; the output bag is the
    same either way. *)

val query :
  source:(Braid_logic.Atom.t -> Braid_relalg.Relation.t) ->
  schema_of:(string -> Braid_relalg.Schema.t option) ->
  Ast.t ->
  Braid_relalg.Relation.t
(** Full CAQL: union (set semantics), difference, aggregation. *)

val lazy_conj :
  source:(Braid_logic.Atom.t -> Braid_stream.Tuple_stream.t) ->
  schema_of:(string -> Braid_relalg.Schema.t option) ->
  Ast.conj ->
  Braid_stream.Tuple_stream.t
(** Lazy generator: tuples are produced on demand; the amount of work done
    (visible through the sources' [produced] counters) is proportional to
    how far the consumer pulls. *)
