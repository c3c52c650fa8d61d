module R = Braid_relalg
module L = Braid_logic
module A = Braid_caql.Ast
module TS = Braid_stream.Tuple_stream
module Qpo = Braid_planner.Qpo
module Plan = Braid_planner.Plan
module Cms = Braid.Cms
module System = Braid.System
module Engine = Braid_ie.Engine
module Strategy = Braid_ie.Strategy
module Datalog = Braid_ie.Datalog
module Server = Braid_remote.Server
module Rdi = Braid_remote.Rdi
module CM = Braid_cache.Cache_model
module CMgr = Braid_cache.Cache_manager
module Maintain = Braid_cache.Maintain
module Oracle = Braid_check.Oracle
module Metrics = Braid_obs.Metrics
module W = Workloads

(* --- building the system under test --- *)

type target = { cms : Cms.t; engine : Engine.t option; server : Server.t }

(* Everything a build consumes, made before the set-up clock starts: the
   knowledge base and freshly generated tables (writes mutate them). *)
type inputs = { kb : L.Kb.t option; tables : R.Relation.t list }

let inputs (w : W.t) =
  {
    kb = (match w.setup with W.Ie { kb; _ } -> Some (kb ()) | W.Cms_direct _ -> None);
    tables = w.tables ();
  }

let build (w : W.t) inp =
  match (w.setup, inp.kb) with
  | W.Ie { strategy; config; _ }, Some kb ->
    let sys = System.build ~config ~strategy ~kb ~data:inp.tables () in
    { cms = System.cms sys; engine = Some (System.engine sys); server = System.server sys }
  | W.Cms_direct { capacity_bytes; maintain }, _ ->
    let server = Server.create () in
    List.iter (Braid_remote.Engine.load (Server.engine server)) inp.tables;
    { cms = Cms.create ~capacity_bytes ~maintain server; engine = None; server }
  | W.Ie _, None -> invalid_arg "Runner.build: IE workload without a knowledge base"

(* --- the counters each layer already exposes, read at episode end --- *)

type counters = {
  answers : int;
  exact_hits : int;
  full_hits : int;
  partial_hits : int;
  misses : int;
  generalizations : int;
  prefetches : int;
  lazy_answers : int;
  degraded : int;
  remote_requests : int;
  tuples_returned : int;
  tuples_scanned : int;
  rdi_retries : int;
  rdi_failures : int;
  sim_ms : float;
  cache_elements : int;
  cache_bytes : int;
  evictions : int;
  delta_maintained : int;
  delta_fallbacks : int;
  resolutions : int;
  caql : int;
  set_rounds : int;
  set_fetched_tuples : int;
}

let set_counters () =
  (Metrics.counter_value "ie.set.rounds", Metrics.counter_value "ie.set.fetched_tuples")

let counters t ~ie:(resolutions, caql) ~set0:(r0, f0) =
  let q = Cms.metrics t.cms in
  let remote = Cms.remote_stats t.cms in
  let rdi = Cms.rdi_stats t.cms in
  let summary = Cms.cache_summary t.cms in
  let delta = Cms.delta_totals t.cms in
  let r1, f1 = set_counters () in
  {
    answers = q.Qpo.queries;
    exact_hits = q.Qpo.exact_hits;
    full_hits = q.Qpo.full_hits;
    partial_hits = q.Qpo.partial_hits;
    misses = q.Qpo.misses;
    generalizations = q.Qpo.generalizations;
    prefetches = q.Qpo.prefetches;
    lazy_answers = q.Qpo.lazy_answers;
    degraded = q.Qpo.degraded;
    remote_requests = remote.Server.requests;
    tuples_returned = remote.Server.tuples_returned;
    tuples_scanned = remote.Server.tuples_scanned;
    rdi_retries = rdi.Rdi.retries;
    rdi_failures = rdi.Rdi.failures;
    sim_ms =
      (q.Qpo.elapsed_ms +. match t.engine with Some e -> Engine.ie_ms e | None -> 0.);
    cache_elements = summary.CM.element_count;
    cache_bytes = summary.CM.total_bytes;
    evictions = (CMgr.stats (Cms.cache t.cms)).CMgr.evictions;
    delta_maintained = delta.Maintain.maintained;
    delta_fallbacks = delta.Maintain.fallbacks;
    resolutions;
    caql;
    set_rounds = r1 - r0;
    set_fetched_tuples = f1 - f0;
  }

(* The planner's decisions and the remote traffic: what a hook or a replay
   must reproduce exactly. *)
let planner_signature c =
  [
    ("qpo.answers", c.answers);
    ("qpo.exact_hits", c.exact_hits);
    ("qpo.full_hits", c.full_hits);
    ("qpo.partial_hits", c.partial_hits);
    ("qpo.misses", c.misses);
    ("qpo.generalizations", c.generalizations);
    ("qpo.prefetches", c.prefetches);
    ("qpo.lazy_answers", c.lazy_answers);
    ("remote.requests", c.remote_requests);
  ]

let signature c =
  planner_signature c
  @ [
      ("remote.tuples_returned", c.tuples_returned);
      ("cache.evictions", c.evictions);
      ("cache.delta.maintained", c.delta_maintained);
    ]

let mismatches a b =
  List.filter_map
    (fun ((name, x), (_, y)) ->
      if x = y then None else Some (Printf.sprintf "%s %d vs %d" name x y))
    (List.combine a b)

(* --- correctness references, consulted outside every timed interval --- *)

(* IE goals: a fault-free local fixpoint straight over the generated
   tables, never through the CMS. Each goal predicate is solved once with
   every argument free; a goal's answer is then the rows that agree with
   its constants, projected on its variables (the IE workloads do not
   write, so the fixpoint stays valid). *)
let goal_reference (w : W.t) =
  let kb = match w.setup with W.Ie { kb; _ } -> kb () | W.Cms_direct _ -> L.Kb.create () in
  let tables = lazy (w.tables ()) in
  let base name = List.find_opt (fun r -> R.Relation.name r = name) (Lazy.force tables) in
  let solved = Hashtbl.create 4 in
  fun (goal : L.Atom.t) ->
    let all =
      match Hashtbl.find_opt solved goal.pred with
      | Some r -> r
      | None ->
        let free =
          L.Atom.make goal.pred (List.mapi (fun i _ -> L.Term.Var (Printf.sprintf "V%d" i)) goal.args)
        in
        let r = (Datalog.solve kb ~base free).Datalog.result in
        Hashtbl.add solved goal.pred r;
        r
    in
    let args = Array.of_list goal.args in
    let first_of v =
      let rec go i = if args.(i) = L.Term.Var v then i else go (i + 1) in
      go 0
    in
    let agrees row =
      Array.for_all Fun.id
        (Array.mapi
           (fun i t ->
             match t with
             | L.Term.Const c -> R.Value.equal row.(i) c
             | L.Term.Var v -> R.Value.equal row.(i) row.(first_of v))
           args)
    in
    let vars = L.Atom.vars goal in
    R.Relation.fold
      (fun acc row ->
        if agrees row then Array.of_list (List.map (fun v -> row.(first_of v)) vars) :: acc else acc)
      [] all

(* The references of a checked cycle. [truths] memoizes each read's truth
   by (sequence, position): every cycle replays the same writes, so the
   remote's tables at a position are the same in every cycle. *)
type checks = {
  reference : L.Atom.t -> R.Tuple.t list;
  truths : (int * int, R.Tuple.t list) Hashtbl.t;
}

let make_checks w = { reference = goal_reference w; truths = Hashtbl.create 1024 }

(* [(missing, extra)]: expected rows absent from [actual], and rows of
   [actual] that are not expected, under set semantics. *)
let set_diff expected actual =
  let tbl = Hashtbl.create 64 in
  List.iter (fun row -> Hashtbl.replace tbl row false) expected;
  let extra = ref 0 in
  R.Relation.iter
    (fun row -> if Hashtbl.mem tbl row then Hashtbl.replace tbl row true else incr extra)
    actual;
  let missing = Hashtbl.fold (fun _ seen n -> if seen then n else n + 1) tbl 0 in
  (missing, !extra)

type outcome =
  | Solved of R.Relation.t * Engine.report
  | Answered of R.Relation.t * Plan.provenance
  | Wrote of bool

(* The cms_rw client wants exact answers. When IVM cannot delta-maintain a
   dependent of an insert (a join whose other side has no Fresh covering
   element, docs/CONSISTENCY.md), the CMS stale-marks it, and reads served
   from it come back Degraded although the remote is reachable. The client
   drops those elements right after the insert, as the CMS itself does
   with a delete's fallbacks, so an IVM fallback costs re-fetches (seen in
   [cache.delta.fallbacks] and [remote_requests_per_op]) instead of
   Degraded answers. *)
let drop_stale_dependents t table =
  let cache = Cms.cache t.cms in
  List.iter
    (fun (e : Braid_cache.Element.t) -> if e.stale then CMgr.remove_element cache e ~pred:table)
    (CM.candidates_for_pred (CMgr.model cache) table)

(* [cms] wraps each direct CMS call, so a traced run can time it apart
   from the client around it. *)
let exec ?(cms = fun f -> f ()) t = function
  | W.Goal g ->
    let engine = match t.engine with Some e -> e | None -> invalid_arg "goal without an IE" in
    let rel, report = Engine.solve_all engine g in
    Solved (rel, report)
  | W.Read q ->
    cms (fun () ->
        let a = Cms.query t.cms q in
        Answered (TS.to_relation a.Qpo.stream, a.Qpo.provenance))
  | W.Insert (table, tup) ->
    cms (fun () ->
        Cms.apply_insert t.cms table tup;
        drop_stale_dependents t table;
        Wrote true)
  | W.Delete (table, tup) -> cms (fun () -> Wrote (Cms.apply_delete t.cms table tup))

let op_text = function
  | W.Goal g -> L.Atom.to_string g
  | W.Read q -> A.conj_to_string q
  | W.Insert (table, _) -> "insert into " ^ table
  | W.Delete (table, _) -> "delete from " ^ table

(* An op fails when it raises, when any CAQL answer it got came back
   Degraded (a read's own answer, or one inside a goal: the remote is
   always reachable here, so every answer should be Fresh), or when its
   answer differs from the reference: a goal's from the local fixpoint, a
   read's from [Oracle.ground_truth] over the remote's tables as they are
   when the read runs. [expected] is [None] in an unchecked cycle. *)
let verdict ~expected ~degraded op outcome =
  let diff expected rel =
    match set_diff expected rel with
    | 0, 0 -> None
    | missing, extra -> Some (Printf.sprintf "%d missing, %d extra" missing extra)
  in
  let compare rel =
    match expected with None -> None | Some rows -> diff (rows ()) rel
  in
  let why =
    match (op, outcome) with
    | _, Error e -> Some ("raised " ^ Printexc.to_string e)
    | (W.Insert _ | W.Delete _), Ok (Wrote true) -> None
    | W.Delete _, Ok (Wrote false) -> Some "delete found no tuple"
    | W.Goal _, Ok (Solved (rel, _)) | W.Read _, Ok (Answered (rel, _)) -> compare rel
    | _, Ok _ -> Some "unexpected outcome"
  in
  match (why, degraded) with
  | None, false -> None
  | None, true -> Some (op_text op ^ ": Degraded answer")
  | Some why, false -> Some (op_text op ^ ": " ^ why)
  | Some why, true -> Some (op_text op ^ ": Degraded answer, " ^ why)

(* --- span arithmetic: fetch children under their parent spans --- *)

type split = { parent_ns : int64; self_ns : int64; parent_words : float; child_words : float }

let no_split = { parent_ns = 0L; self_ns = 0L; parent_words = 0.; child_words = 0. }

let add_split a b =
  {
    parent_ns = Int64.add a.parent_ns b.parent_ns;
    self_ns = Int64.add a.self_ns b.self_ns;
    parent_words = a.parent_words +. b.parent_words;
    child_words = a.child_words +. b.child_words;
  }

(* Parents and children are each in time order, children nested inside
   parents (one thread), so one merge pass assigns every child. *)
let split (parents : Clock.span list) (children : Clock.span list) =
  let rec go parents children acc =
    match parents with
    | [] -> acc
    | (p : Clock.span) :: rest ->
      let rec take cs inside =
        match cs with
        | (c : Clock.span) :: more when Int64.compare c.stop p.stop <= 0 ->
          take more (if Int64.compare c.start p.start >= 0 then c :: inside else inside)
        | _ -> (cs, inside)
      in
      let remaining, inside = take children [] in
      let self =
        Stats.self_ns ~start:p.start ~stop:p.stop
          (List.map (fun (c : Clock.span) -> (c.start, c.stop)) inside)
      in
      go rest remaining
        (add_split acc
           {
             parent_ns = Clock.duration_ns p;
             self_ns = self;
             parent_words = p.words;
             child_words = List.fold_left (fun w (c : Clock.span) -> w +. c.words) 0. inside;
           })
  in
  go parents children no_split

(* --- one episode: build a fresh system, run one op sequence --- *)

(* One traced op's layer times, in nanoseconds. *)
type layers = {
  op_ns : float;  (** the live op span *)
  cms_ns : float;
      (** the op's CMS calls: its replayed CAQL stream (IE workloads) or its
          live direct call (cms_rw) *)
  cms_self_ns : float;  (** those calls minus the fetches inside them *)
  fetch_ns : float;  (** the live fetch-wrapper spans inside the op *)
}

type traced = {
  layers : layers array;  (** per op, in sequence order *)
  answers : int;  (** CMS answers timed: replayed queries or direct reads *)
  cms_words : float;  (** words allocated by those calls minus their fetches' *)
  fetches : int;
  fetch_words : float;
  replay_counters : counters option;  (** IE workloads: the replay system's *)
}

type episode = {
  setup_s : float list;  (** this episode's timed builds *)
  op_ms : float array;  (** each op's latency, in sequence order *)
  op_words : float;  (** words allocated inside op spans *)
  failed : int;
  failures : string list;
  degraded_ops : int;  (** ops with a Degraded CAQL answer (reads, or inside a goal) *)
  counters : counters;
  traced : traced option;
}

(* Installs the RDI timing wrapper: every planner fetch goes through
   [Cms.exec_remote] inside a span, newest first in the returned list. *)
let wrap_fetches t =
  let fetches = ref [] in
  Cms.set_fetcher t.cms
    (Some
       (fun _def sql ->
         let r, span = Clock.span (fun () -> Cms.exec_remote t.cms sql) in
         fetches := span :: !fetches;
         r));
  fetches

(* The spans pushed onto a newest-first list since it was [before], in
   time order. *)
let since before spans =
  let rec added l = if l == before then [] else match l with x :: r -> x :: added r | [] -> [] in
  List.rev (added spans)

let span_sum (spans : Clock.span list) =
  List.fold_left (fun (ns, w) s -> (ns +. Int64.to_float (Clock.duration_ns s), w +. s.Clock.words))
    (0., 0.) spans

(* Re-issues one goal's CAQL stream through [Cms.begin_session] +
   [Cms.query] on the replay system, right after the live goal, asking
   each query lazily exactly when the live answer was lazy. Returns the
   queries' split against the replay's fetches. *)
let replay_goal r ~replay_fetches advice (stream : (A.conj * Plan.t) list) =
  Cms.begin_session r.cms advice;
  let before = !replay_fetches in
  let spans =
    List.map
      (fun (q, plan) ->
        let prefer_lazy = List.mem Plan.Lazy_answer plan in
        snd
          (Clock.span (fun () ->
               let a = Cms.query r.cms ~prefer_lazy q in
               ignore (TS.to_relation a.Qpo.stream))))
      stream
  in
  (split spans (since before !replay_fetches), List.length spans)

(* Runs one sequence on a fresh system. An untraced episode times
   [builds] builds (the last is the episode's system). A traced one also
   builds a replay system for the IE workloads and splits every op into
   its layers. *)
let run_episode (w : W.t) (seq, ops) ~checks ~traced ~builds =
  Gc.full_major ();
  let timed_build () =
    let inp = inputs w in
    let t, span = Clock.span (fun () -> build w inp) in
    (t, Clock.duration_ms span /. 1000.)
  in
  let extra = List.init (builds - 1) (fun _ -> snd (timed_build ())) in
  let t, setup_s = timed_build () in
  let is_ie = t.engine <> None in
  let replay = if traced && is_ie then Some (build w (inputs w)) else None in
  let oracle = lazy (Oracle.create t.server) in
  let fetches = if traced then wrap_fetches t else ref [] in
  let replay_fetches = match replay with Some r -> wrap_fetches r | None -> ref [] in
  let set0 = set_counters () in
  let n = Array.length ops in
  let op_ms = Array.make n 0. and op_words = ref 0. in
  let layers = Array.make n { op_ns = 0.; cms_ns = 0.; cms_self_ns = 0.; fetch_ns = 0. } in
  let answers = ref 0 and cms_words = ref 0. in
  let failed = ref 0 and failures = ref [] and degraded_ops = ref 0 in
  let resolutions = ref 0 and caql = ref 0 in
  Array.iteri
    (fun i op ->
      let degraded0 = (Cms.metrics t.cms).Qpo.degraded in
      let fetches0 = !fetches in
      let cms_calls = ref [] in
      if traced then Cms.set_trace t.cms true;
      let cms f =
        let r, span = Clock.span f in
        cms_calls := span :: !cms_calls;
        r
      in
      let exec = if traced then exec ~cms else exec ?cms:None in
      let outcome, span = Clock.span (fun () -> try Ok (exec t op) with e -> Error e) in
      op_ms.(i) <- Clock.duration_ms span;
      op_words := !op_words +. span.Clock.words;
      let degraded = (Cms.metrics t.cms).Qpo.degraded > degraded0 in
      if degraded then incr degraded_ops;
      (match outcome with
       | Ok (Solved (_, report)) ->
         resolutions := !resolutions + report.Engine.counters.Strategy.resolutions;
         caql := !caql + report.Engine.counters.Strategy.db_goal_queries
       | Ok (Answered _ | Wrote _) | Error _ -> ());
      if traced then begin
        let live_fetches = since fetches0 !fetches in
        let cms_split, n_answers =
          match (replay, outcome) with
          | Some r, Ok (Solved (_, report)) ->
            replay_goal r ~replay_fetches report.Engine.advice (Cms.trace t.cms)
          | _ ->
            ( split (List.rev !cms_calls) live_fetches,
              match op with W.Read _ -> 1 | _ -> 0 )
        in
        answers := !answers + n_answers;
        if W.is_read op then
          cms_words := !cms_words +. cms_split.parent_words -. cms_split.child_words;
        layers.(i) <-
          {
            op_ns = Int64.to_float (Clock.duration_ns span);
            cms_ns = Int64.to_float cms_split.parent_ns;
            cms_self_ns = Int64.to_float cms_split.self_ns;
            fetch_ns = fst (span_sum live_fetches);
          }
      end;
      let expected =
        match (checks, op) with
        | None, _ | Some _, (W.Insert _ | W.Delete _) -> None
        | Some c, W.Goal g -> Some (fun () -> c.reference g)
        | Some c, W.Read q ->
          Some
            (fun () ->
              match Hashtbl.find_opt c.truths (seq, i) with
              | Some rows -> rows
              | None ->
                let rows = R.Relation.to_list (Oracle.ground_truth (Lazy.force oracle) q) in
                Hashtbl.add c.truths (seq, i) rows;
                rows)
      in
      match verdict ~expected ~degraded op outcome with
      | None -> ()
      | Some why ->
        incr failed;
        if List.length !failures < 5 then failures := why :: !failures)
    ops;
  let set_fetcher_off (s : target) = Cms.set_fetcher s.cms None in
  if traced then begin
    Cms.set_trace t.cms false;
    set_fetcher_off t
  end;
  Option.iter set_fetcher_off replay;
  {
    setup_s = extra @ [ setup_s ];
    op_ms;
    op_words = !op_words;
    failed = !failed;
    failures = List.rev !failures;
    degraded_ops = !degraded_ops;
    counters = counters t ~ie:(!resolutions, !caql) ~set0;
    traced =
      (if not traced then None
       else
         Some
           {
             layers;
             answers = !answers;
             cms_words = !cms_words;
             fetches = List.length !fetches;
             fetch_words = snd (span_sum !fetches);
             replay_counters = Option.map (fun r -> counters r ~ie:(0, 0) ~set0) replay;
           });
  }

(* A cycle runs every sequence of the workload once, each on its own
   fresh system. *)
let run_cycle (w : W.t) ~checks ~traced ~builds =
  List.mapi (fun seq ops -> run_episode w (seq, ops) ~checks ~traced ~builds) w.episodes

(* --- the run --- *)

type config = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  size : W.size;
}

type report = { result : Result_json.t; lines : string list }

let metric name value unit_ = { Result_json.name; value; unit_ }
let sum_int f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let per a b = if b = 0 then 0. else float a /. float b
let perf a b = if b = 0 then 0. else a /. float b
let ms_of_ns ns = ns /. 1e6

let heap_peak () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Each position's minimum, or mean, over the cycles of a per-op measure:
   every cycle repeats the same work on a fresh system. The minimum filters
   out the slow phases of a shared machine; the mean averages over them. *)
let position_fold g (f : episode -> float array) (cycles : episode list list) =
  let flat cycle = Array.concat (List.map f cycle) in
  match cycles with
  | [] -> [||]
  | first :: rest -> List.fold_left (fun acc cycle -> Array.map2 g acc (flat cycle)) (flat first) rest

let position_min f cycles = position_fold Float.min f cycles

let position_mean f cycles =
  let n = float (List.length cycles) in
  Array.map (fun total -> total /. n) (position_fold ( +. ) f cycles)

(* Which positions of a flattened cycle are reads. *)
let read_mask (w : W.t) = Array.concat (List.map (Array.map W.is_read) w.episodes)

let select mask keep a =
  List.filteri (fun i _ -> mask.(i) = keep) (Array.to_list a)

(* Median and the highest percentile with at least ten samples beyond it. *)
let latency_line name samples ~repeats =
  let a = Stats.sorted samples in
  let n = Array.length a in
  let at permille = Stats.percentile a ~permille in
  if n = 0 then Printf.sprintf "  %-14s (no samples)" name
  else
    Printf.sprintf "  %-14s n=%d ops x %d repeats (mean per op)  p50 %.3f  %s  max %.3f" name n
      repeats (at 500)
      (match Stats.tail_permille ~n with
       | Some p when p > 500 -> Printf.sprintf "p%g %.3f" (float p /. 10.) (at p)
       | Some _ | None -> "(no tail percentile with ten samples beyond)")
      a.(n - 1)

let metric_lines metrics =
  List.map
    (fun (m : Result_json.metric) -> Printf.sprintf "  %-30s %16.6f %s" m.name m.value m.unit_)
    metrics

(* The end-to-end metrics, from untraced cycles. Latency percentiles come
   from per-op means over the cycles; throughput is all the cycles' ops
   over their measured op time. The library keeps some
   process-wide state (metric registries, memo tables) that makes later
   cycles allocate slightly differently, so the deterministic metrics come
   from the first cycle, which always runs in the same process state. *)
let end_to_end (w : W.t) ~setup_samples ~heap_peak_mb cycles =
  let means = position_mean (fun e -> e.op_ms) cycles in
  let mask = read_mask w in
  let reads = select mask true means and writes = select mask false means in
  let ops = Array.length means in
  let throughput cycle = float ops /. (sumf (fun e -> Array.fold_left ( +. ) 0. e.op_ms) cycle /. 1000.) in
  let sorted = Stats.sorted reads in
  let first = List.hd cycles in
  let c f = sum_int (fun e -> f e.counters) first in
  let metrics =
    [
      metric "setup_s" (Stats.median setup_samples) "s";
      metric "ops_per_s" (float ops /. (Array.fold_left ( +. ) 0. means /. 1000.)) "1/s";
      metric "op_ms_p50" (Stats.percentile sorted ~permille:500) "ms";
      metric "op_ms_p90" (Stats.percentile sorted ~permille:900) "ms";
      metric "words_per_op" (sumf (fun e -> e.op_words) first /. float ops) "words";
      metric "heap_peak_mb" heap_peak_mb "MiB";
      metric "remote_requests_per_op" (per (c (fun c -> c.remote_requests)) ops) "count";
      metric "tuples_moved_per_op" (per (c (fun c -> c.tuples_returned)) ops) "count";
      metric "sim_ms_per_op" (perf (sumf (fun e -> e.counters.sim_ms) first) ops) "sim_ms";
    ]
  in
  let repeats = List.length cycles in
  let lines =
    [ "end-to-end (untraced):" ]
    @ metric_lines metrics
    @ [
        Printf.sprintf "  setup_s: median of %d builds; ops_per_s: over all %d cycles"
          (List.length setup_samples) repeats;
        "  ops_per_s by cycle: "
        ^ String.concat " " (List.map (fun c -> Printf.sprintf "%.3f" (throughput c)) cycles);
        latency_line "op_ms (reads)" reads ~repeats;
        latency_line "write_ms" writes ~repeats;
      ]
  in
  (metrics, lines)

(* The per-layer metrics, from the traced cycles and the untraced cycles
   run between them. Layer times are per-op minima over the traced cycles.
   IE self time is the live op time minus the replayed CMS time; it is
   published only when the replay reproduces the live run and the
   difference is positive and larger than its spread over the traced
   cycles. *)
let per_layer (w : W.t) ~untraced ~traced ~is_ie =
  let tr e = match e.traced with Some t -> t | None -> invalid_arg "per_layer: untraced episode" in
  let first = List.hd traced in
  let n_eps = List.length first in
  let mask = read_mask w in
  let ops = Array.length mask in
  let per_ep f = perf (float (sum_int (fun e -> f e.counters) first)) n_eps in
  let per_op f = per (sum_int (fun e -> f e.counters) first) ops in
  let layer f = position_min (fun e -> Array.map f (tr e).layers) traced in
  let total a = Array.fold_left ( +. ) 0. a in
  let op_ns = layer (fun l -> l.op_ns) and cms_ns = layer (fun l -> l.cms_ns) in
  let cms_self = layer (fun l -> l.cms_self_ns) and fetch_ns = total (layer (fun l -> l.fetch_ns)) in
  let wall_ns = total op_ns in
  let read_cms_self = List.fold_left ( +. ) 0. (select mask true cms_self) in
  let write_ns = List.fold_left ( +. ) 0. (select mask false cms_self) in
  let writes = List.length (select mask false cms_self) in
  let answers = sum_int (fun e -> (tr e).answers) first in
  let n_fetch = sum_int (fun e -> (tr e).fetches) first in
  let fetch_words = sumf (fun e -> (tr e).fetch_words) first in
  let cms_words = sumf (fun e -> (tr e).cms_words) first in
  (* The client's self time: the op time its CMS calls do not explain (the
     IE's, or the benchmark loop's own around direct calls). *)
  let client_ns = wall_ns -. total cms_ns in
  let cycle_client cycle =
    sumf (fun e -> sumf Fun.id (Array.to_list (Array.map (fun l -> l.op_ns -. l.cms_ns) (tr e).layers))) cycle
  in
  let cycle_clients = List.map cycle_client traced in
  let client_spread =
    List.fold_left Float.max Float.neg_infinity cycle_clients
    -. List.fold_left Float.min Float.infinity cycle_clients
  in
  (* Hook neutrality: a traced episode must make the same decisions and
     remote traffic as the untraced run of the same sequence. *)
  let neutral_diffs =
    List.concat_map
      (fun cycle ->
        List.concat
          (List.map2
             (fun u t -> mismatches (signature u.counters) (signature t.counters))
             (List.hd untraced) cycle))
      traced
  in
  (* Replay fidelity: the replayed streams must reproduce the live run's
     planner decisions and remote requests, or the ie/cms split is not
     published. *)
  let replay_diffs =
    List.concat_map
      (List.concat_map (fun e ->
           match (tr e).replay_counters with
           | Some r -> mismatches (planner_signature e.counters) (planner_signature r)
           | None -> []))
      traced
  in
  let neutral = neutral_diffs = [] and faithful = replay_diffs = [] in
  let resolved = faithful && client_ns > 0. && client_ns > client_spread in
  let unattributed_ns = wall_ns -. (client_ns +. total cms_self +. fetch_ns) in
  let untraced_ns = total (position_min (fun e -> e.op_ms) untraced) *. 1e6 in
  let traced_ns = total (position_min (fun e -> e.op_ms) traced) *. 1e6 in
  let overhead = 100. *. (1. -. (untraced_ns /. traced_ns)) in
  let metrics =
    [
      metric "ie.self_ms_per_op" (if resolved then perf (ms_of_ns client_ns) ops else 0.) "ms";
      metric "ie.resolutions_per_op" (per_op (fun c -> c.resolutions)) "count";
      metric "ie.caql_per_op" (per_op (fun c -> c.caql)) "count";
      metric "ie.set.rounds_per_op" (per_op (fun c -> c.set_rounds)) "count";
      metric "ie.set.fetched_tuples_per_op" (per_op (fun c -> c.set_fetched_tuples)) "count";
      metric "cms.self_ms_per_answer" (if faithful then perf (ms_of_ns read_cms_self) answers else 0.) "ms";
      metric "cms.words_per_answer" (if faithful then perf cms_words answers else 0.) "words";
      metric "qpo.answers" (per_ep (fun c -> c.answers)) "count";
      (* full hits are the answers made without the remote; exact hits are
         a subset of them *)
      metric "qpo.hit_ratio"
        (per (sum_int (fun e -> e.counters.full_hits) first) (sum_int (fun e -> e.counters.answers) first))
        "ratio";
      metric "qpo.exact_hits" (per_ep (fun c -> c.exact_hits)) "count";
      metric "qpo.full_hits" (per_ep (fun c -> c.full_hits)) "count";
      metric "qpo.misses" (per_ep (fun c -> c.misses)) "count";
      metric "qpo.generalizations" (per_ep (fun c -> c.generalizations)) "count";
      metric "qpo.prefetches" (per_ep (fun c -> c.prefetches)) "count";
      metric "qpo.lazy_answers" (per_ep (fun c -> c.lazy_answers)) "count";
      metric "qpo.degraded" (per_ep (fun c -> c.degraded)) "count";
      metric "cache.elements" (per_ep (fun c -> c.cache_elements)) "count";
      metric "cache.bytes" (per_ep (fun c -> c.cache_bytes)) "bytes";
      metric "cache.evictions" (per_ep (fun c -> c.evictions)) "count";
      metric "cache.delta.maintained" (per_ep (fun c -> c.delta_maintained)) "count";
      metric "cache.delta.fallbacks" (per_ep (fun c -> c.delta_fallbacks)) "count";
      metric "rdi.fetches" (perf (float n_fetch) n_eps) "count";
      metric "rdi.busy_ms_per_fetch" (perf (ms_of_ns fetch_ns) n_fetch) "ms";
      metric "rdi.words_per_fetch" (perf fetch_words n_fetch) "words";
      metric "rdi.share_of_wall" (fetch_ns /. wall_ns) "ratio";
      metric "rdi.retries" (per_ep (fun c -> c.rdi_retries)) "count";
      metric "rdi.failures" (per_ep (fun c -> c.rdi_failures)) "count";
      metric "remote.requests" (per_ep (fun c -> c.remote_requests)) "count";
      metric "remote.tuples_returned" (per_ep (fun c -> c.tuples_returned)) "count";
      metric "remote.scanned_per_returned"
        (per (sum_int (fun e -> e.counters.tuples_scanned) first)
           (sum_int (fun e -> e.counters.tuples_returned) first))
        "ratio";
      metric "trace.overhead_pct" overhead "%";
      metric "trace.hooks_neutral" (if neutral then 1. else 0.) "bool";
      metric "trace.replay_faithful" (if faithful then 1. else 0.) "bool";
      metric "trace.split_resolved" (if resolved then 1. else 0.) "bool";
    ]
  in
  let share ns = 100. *. ns /. wall_ns in
  let row ?words name ns =
    Printf.sprintf "  %-14s %10.1f ms %6.1f%%%s" name (ms_of_ns ns) (share ns)
      (match words with Some w -> Printf.sprintf " %14.0f words" w | None -> "")
  in
  let client = if is_ie then "ie" else "client" in
  let lines =
    [
      (if neutral then "hooks neutral: traced counters equal untraced"
       else "hooks NOT neutral: " ^ String.concat "; " neutral_diffs);
    ]
    @ (if is_ie then
         [
           (if faithful then "replay matches the live run: planner counters and remote requests equal"
            else "replay DIFFERS, ie/cms split unresolved: " ^ String.concat "; " replay_diffs);
         ]
       else [])
    @ [
        Printf.sprintf
          "layer self-times, per-op minima over %d traced cycles of %d ops (%s, wall %.1f ms):"
          (List.length traced) ops w.name (ms_of_ns wall_ns);
        (if resolved then row client client_ns
         else
           Printf.sprintf "  %-14s unresolved: %.1f ms, spread over traced cycles %.1f ms%s" client
             (ms_of_ns client_ns) (ms_of_ns client_spread)
             (if faithful then "" else ", replay differs"));
        (if faithful then row "cms" read_cms_self ~words:cms_words
         else Printf.sprintf "  %-14s unresolved (replay differs from the live run)" "cms");
      ]
    @ (if writes > 0 then
         [
           row "cms (writes)" write_ns;
           Printf.sprintf "  %-14s %10.3f ms per write" "" (perf (ms_of_ns write_ns) writes);
         ]
       else [])
    @ [ row "rdi+remote" fetch_ns ~words:fetch_words; row "unattributed" unattributed_ns ]
    @ [ "per-layer (traced):" ]
    @ metric_lines metrics
  in
  (metrics, lines)

(* Set-up samples besides the builds of the first cycle: this many builds
   after it, then [builds_per_episode] before every later untraced episode
   (the last is the episode's system). *)
let initial_builds = 5
let builds_per_episode = 5

(* The number of cycles follows from the time budget and the workload's
   budget per cycle, not from the clock: a run on a momentarily slow
   machine does the same work as any other, so its per-op means are taken
   over the same number of repeats. A hard limit stops early, after the
   first [at_least] cycles, on a machine far slower than budgeted. *)
let hard_ns = 150_000_000_000L

let cycles_while ~t0 ~at_least n f =
  let rec go i acc =
    if i >= n || (i >= at_least && Int64.compare (Int64.sub (Clock.now_ns ()) t0) hard_ns >= 0)
    then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* Untraced: the first cycle is unchecked and builds one system per
   episode, so the heap peak read after it is the systems' own, not the
   references' or the extra set-up builds'; the deterministic metrics come
   from it too. Later cycles repeat the same work and check every answer. *)
let run_untraced cfg (w : W.t) ~t0 =
  let cycles =
    match cfg.size with
    | W.Tiny -> 2
    | W.Full -> max 2 (int_of_float (Float.round (float cfg.seconds /. w.cycle_s)))
  in
  let first = run_cycle w ~checks:None ~traced:false ~builds:1 in
  let heap_peak_mb = heap_peak () in
  let initial_setups =
    List.init initial_builds (fun _ ->
        let inp = inputs w in
        let _, span = Clock.span (fun () -> build w inp) in
        Clock.duration_ms span /. 1000.)
  in
  let checks = Some (make_checks w) in
  let rest =
    cycles_while ~t0 ~at_least:1 (cycles - 1) (fun _ ->
        run_cycle w ~checks ~traced:false ~builds:builds_per_episode)
  in
  let setup_samples = initial_setups @ List.concat_map (List.concat_map (fun e -> e.setup_s)) rest in
  let metrics, lines = end_to_end w ~setup_samples ~heap_peak_mb (first :: rest) in
  (first :: rest, [], metrics, lines)

(* Traced: untraced and traced cycles alternate, the same number of each,
   so the tracing overhead compares minima over equally many repeats. *)
let run_traced cfg (w : W.t) ~t0 ~is_ie =
  let pairs =
    match cfg.size with
    | W.Tiny -> 1
    | W.Full -> max 2 (int_of_float (Float.round (float cfg.seconds /. (3. *. w.cycle_s))))
  in
  let checks = Some (make_checks w) in
  let cycles =
    cycles_while ~t0 ~at_least:2 (2 * pairs) (fun i ->
        (i mod 2 = 1, run_cycle w ~checks ~traced:(i mod 2 = 1) ~builds:1))
  in
  let untraced = List.filter_map (fun (t, c) -> if t then None else Some c) cycles in
  let traced = List.filter_map (fun (t, c) -> if t then Some c else None) cycles in
  let metrics, lines = per_layer w ~untraced ~traced ~is_ie in
  (untraced, traced, metrics, lines)

let run cfg =
  let w = Workloads.make ~name:cfg.workload ~seed:cfg.seed ~size:cfg.size in
  let is_ie = match w.setup with W.Ie _ -> true | W.Cms_direct _ -> false in
  let t0 = Clock.now_ns () in
  let untraced, traced, metrics, lines =
    if cfg.trace then run_traced cfg w ~t0 ~is_ie else run_untraced cfg w ~t0
  in
  let all = List.concat (untraced @ traced) in
  let attempted = sum_int (fun e -> Array.length e.op_ms) all in
  let failed = sum_int (fun e -> e.failed) all in
  let degraded = sum_int (fun e -> e.degraded_ops) all in
  let lines =
    [
      Printf.sprintf "workload %s  seed %d  cycles %d untraced + %d traced  ops/cycle %d"
        w.name cfg.seed (List.length untraced) (List.length traced)
        (sum_int Array.length w.episodes);
    ]
    @ lines
    @ [
        Printf.sprintf "failed_ratio %.6f (%d of %d ops raised, came back Degraded or were wrong)"
          (per failed attempted) failed attempted;
        Printf.sprintf "degraded_ratio %.6f (%d of %d ops got a Degraded answer)"
          (per degraded attempted) degraded attempted;
      ]
    @ List.map (fun f -> "  FAILED: " ^ f) (List.concat_map (fun e -> e.failures) all)
  in
  { result = { Result_json.correct = failed = 0; attempted; failed; metrics }; lines }
