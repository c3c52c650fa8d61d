module R = Braid_relalg
module L = Braid_logic
module A = Braid_caql.Ast
module Prng = Braid_prng.Prng
module Datagen = Braid_workload.Datagen
module Kbgen = Braid_workload.Kbgen
module Qpo = Braid_planner.Qpo
module Strategy = Braid_ie.Strategy

type size = Full | Tiny

type op =
  | Goal of L.Atom.t
  | Read of A.conj
  | Insert of string * R.Tuple.t
  | Delete of string * R.Tuple.t

type setup =
  | Ie of {
      kb : unit -> L.Kb.t;
      strategy : Strategy.kind;
      config : Qpo.config;
    }
  | Cms_direct of { capacity_bytes : int; maintain : bool }

type t = {
  name : string;
  setup : setup;
  tables : unit -> R.Relation.t list;
  episodes : op array list;
  cycle_s : float;
}

let is_read = function Goal _ | Read _ -> true | Insert _ | Delete _ -> false

(* Inputs and the seed.

   Every run of a workload does the same work: the tables come from the
   data generators' fixed seeds, and the operations are a fixed sequence
   (a systematic Zipf sample of goal constants, one per 1/n-quantile of the
   distribution, in a fixed shuffled order; for cms_rw a fixed Zipf-drawn
   mix of reads and writes). The seed renames the generated identifiers
   (student, course, person, supplier and part ids) by a seeded
   permutation, in the tables and the operations alike, so two seeds give
   different but isomorphic inputs: the system cannot tell one seed's names
   from another's, and runs with different seeds stay comparable. *)

type names = (string * int array) list

let relabeling ~seed families : names =
  let prng = Prng.create seed in
  List.map
    (fun (prefix, k) -> (prefix, Array.of_list (Prng.shuffle prng (List.init k Fun.id))))
    families

(* [prefix ^ i] under the seed's renaming. *)
let label (names : names) prefix i = prefix ^ string_of_int (List.assoc prefix names).(i)

let is_digit c = c >= '0' && c <= '9'

let rename (names : names) s =
  List.find_map
    (fun (prefix, perm) ->
      let lp = String.length prefix and ls = String.length s in
      if ls > lp && String.sub s 0 lp = prefix then
        let digits = String.sub s lp (ls - lp) in
        if String.for_all is_digit digits then
          let i = int_of_string digits in
          if i < Array.length perm then Some (prefix ^ string_of_int perm.(i)) else None
        else None
      else None)
    names
  |> Option.value ~default:s

let relabel_tables names tables =
  List.map
    (fun rel ->
      R.Relation.of_tuples ~name:(R.Relation.name rel) (R.Relation.schema rel)
        (List.map
           (Array.map (function R.Value.Str x -> R.Value.Str (rename names x) | v -> v))
           (R.Relation.to_list rel)))
    tables

(* Ranks [0, k) with Zipf([skew]) weights; rank j of the [n] returned covers
   the quantile [(j + 1/2) / n] of the distribution. *)
let zipf_systematic ~k ~skew ~n =
  let w = Array.init k (fun i -> 1. /. (float (i + 1) ** skew)) in
  let total = Array.fold_left ( +. ) 0. w in
  let cdf = Array.make k 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      acc := !acc +. (x /. total);
      cdf.(i) <- !acc)
    w;
  List.init n (fun j ->
      let q = (float j +. 0.5) /. float n in
      let rec find i = if i >= k - 1 || cdf.(i) > q then i else find (i + 1) in
      find 0)

(* [episodes] sequences of [n] goals each: one systematic sample of
   [episodes * n] goal constants, shuffled and cut into sequences. *)
let goals names ~pred ~prefix ~k ~skew ~episodes ~n =
  let all =
    zipf_systematic ~k ~skew ~n:(episodes * n)
    |> Prng.shuffle (Prng.create 7)
    |> List.map (fun i ->
           Goal
             (L.Atom.make pred
                [ L.Term.Const (R.Value.Str (label names prefix i)); L.Term.Var "Y" ]))
    |> Array.of_list
  in
  List.init episodes (fun e -> Array.sub all (e * n) n)

let advice_session ~seed ~size =
  let students, courses, episodes, n =
    match size with Full -> (60, 30, 4, 25) | Tiny -> (12, 8, 1, 6)
  in
  let names = relabeling ~seed [ ("s", students); ("c", courses) ] in
  {
    name = "advice_session";
    setup =
      Ie
        {
          kb = Kbgen.university;
          strategy = Strategy.Interpretive;
          config = Qpo.braid_config;
        };
    tables =
      (fun () ->
        relabel_tables names
          (Datagen.university ~students ~courses ~enrollments:(students * 4) ()));
    episodes = goals names ~pred:"eligible" ~prefix:"s" ~k:students ~skew:1.0 ~episodes ~n;
    cycle_s = 6.;
  }

let closure_set ~seed ~size =
  let persons, episodes, n = match size with Full -> (1500, 2, 50) | Tiny -> (150, 1, 6) in
  let names = relabeling ~seed [ ("p", persons) ] in
  {
    name = "closure_set";
    setup =
      Ie
        {
          kb = Kbgen.ancestor;
          strategy = Strategy.Set_oriented;
          config = Qpo.braid_config;
        };
    tables = (fun () -> relabel_tables names (Datagen.family ~persons ~fanout:3 ()));
    (* the first third of the generated people, who have descendants *)
    episodes = goals names ~pred:"ancestor" ~prefix:"p" ~k:(persons / 3) ~skew:0.5 ~episodes ~n;
    cycle_s = 4.3;
  }

(* cms_rw: ~80% PSJ reads (selections, 2- and 3-way joins with range
   comparisons, Zipf-chosen constants), ~20% single-tuple [supplies]
   writes: 70% inserts, 30% deletes of distinct rows of the loaded table. *)
let cities = [| "athens"; "paris"; "london"; "oslo"; "rome" |]
let colors = [| "red"; "green"; "blue"; "black" |]

let parse text =
  match Braid_caql.Parser.parse_clause text with
  | _, A.Conj c -> c
  | _ -> invalid_arg ("Workloads: not a conjunctive query: " ^ text)

let read_query names prng ~suppliers ~parts =
  let sup () = label names "sup" (Prng.zipf prng ~n:suppliers ~skew:1.0) in
  let prt () = label names "prt" (Prng.zipf prng ~n:parts ~skew:1.0) in
  let pick a = a.(Prng.int prng (Array.length a)) in
  let r = Prng.int prng 100 in
  parse
    (if r < 35 then
       Printf.sprintf "q(P, Q) :- supplies(%s, P, Q) & Q >= %d." (sup ())
         (pick [| 1; 100; 200; 300 |])
     else if r < 60 then
       Printf.sprintf "q(P, W) :- supplies(%s, P, Q) & part(P, C, W) & W <= %d." (sup ())
         (pick [| 25; 50; 75 |])
     else if r < 80 then
       Printf.sprintf "q(S, Q) :- supplies(S, %s, Q) & supplier(S, %s)." (prt ())
         (pick cities)
     else if r < 90 then
       Printf.sprintf
         "q(S, P, Q) :- supplier(S, %s) & supplies(S, P, Q) & part(P, %s, W) & Q > %d."
         (pick cities) (pick colors) (pick [| 200; 300 |])
     else Printf.sprintf "q(S) :- supplier(S, %s)." (pick cities))

let cms_rw ~seed ~size =
  let suppliers, parts, shipments, n, capacity_bytes =
    match size with
    | Full -> (200, 1000, 20_000, 1500, 256 * 1024)
    | Tiny -> (10, 30, 400, 60, 16 * 1024)
  in
  let names = relabeling ~seed [ ("sup", suppliers); ("prt", parts) ] in
  let tables () = relabel_tables names (Datagen.supplier_parts ~suppliers ~parts ~shipments ()) in
  let loaded =
    Array.of_list
      (R.Relation.to_list (List.find (fun r -> R.Relation.name r = "supplies") (tables ())))
  in
  let mix = Prng.create 45 in
  let deletable = ref (Prng.shuffle mix (List.init (Array.length loaded) Fun.id)) in
  let op _ =
    if Prng.int mix 100 < 80 then Read (read_query names mix ~suppliers ~parts)
    else if Prng.int mix 100 < 70 then
      Insert
        ( "supplies",
          R.Tuple.make
            [
              R.Value.Str (label names "sup" (Prng.int mix suppliers));
              R.Value.Str (label names "prt" (Prng.int mix parts));
              R.Value.Int (1 + Prng.int mix 400);
            ] )
    else
      match !deletable with
      | i :: rest ->
        deletable := rest;
        Delete ("supplies", loaded.(i))
      | [] -> invalid_arg "Workloads.cms_rw: more deletes than rows"
  in
  {
    name = "cms_rw";
    setup = Cms_direct { capacity_bytes; maintain = true };
    tables;
    episodes = [ Array.init n op ];
    cycle_s = 3.;
  }

let makers = [ ("advice_session", advice_session); ("closure_set", closure_set); ("cms_rw", cms_rw) ]
let names = List.map fst makers

let make ~name ~seed ~size =
  match List.assoc_opt name makers with
  | Some f -> f ~seed ~size
  | None -> invalid_arg ("unknown workload " ^ name)
