module L = Braid_logic
module R = Braid_relalg
module A = Braid_caql.Ast

type outcome = {
  result : R.Relation.t;
  iterations : int;
  tuples_produced : int;
  fetches : int;
  fetched_tuples : int;
  derived_sizes : (string * int) list;
}

type source =
  | Extensions of (string -> R.Relation.t option)
  | Conj_fetch of {
      fetch : A.conj -> R.Relation.t;
      schema : string -> R.Schema.t option;
    }

exception Unknown_base_relation of string

let body_atoms (r : L.Rule.t) =
  List.filter_map
    (function L.Literal.Rel a -> Some a | L.Literal.Cmp _ -> None)
    r.L.Rule.body

let body_cmps (r : L.Rule.t) =
  List.filter_map
    (function L.Literal.Cmp (op, a, b) -> Some (op, a, b) | L.Literal.Rel _ -> None)
    r.L.Rule.body

(* Derived predicates reachable from the query through rules. *)
let reachable kb query =
  let visited = Hashtbl.create 16 in
  let rec go p =
    if (not (Hashtbl.mem visited p)) && L.Kb.is_derived kb p then begin
      Hashtbl.add visited p ();
      List.iter
        (fun r -> List.iter (fun a -> go a.L.Atom.pred) (body_atoms r))
        (L.Kb.rules_for kb p)
    end
  in
  go query.L.Atom.pred;
  Hashtbl.fold (fun p () acc -> p :: acc) visited [] |> List.sort String.compare

let rule_query (r : L.Rule.t) =
  A.conj ~cmps:(body_cmps r) r.L.Rule.head.L.Atom.args (body_atoms r)

let delta_marker p = "\xce\x94" ^ p (* Δp *)

(* The predicate a delta-marked name stands for. *)
let delta_of name =
  if String.starts_with ~prefix:"\xce\x94" name then
    Some (String.sub name 2 (String.length name - 2))
  else None

(* [rule_query] with the [j]-th relation occurrence renamed to the delta
   marker and moved to the front, for semi-naive occurrence-restricted
   joins. The other atoms follow greedily: each next one is the first, in
   body order, that shares a variable with those already placed (else the
   first left), so the joins after the delta probe on bound columns. A
   conjunctive query's output bag does not depend on its atom order. *)
let rule_query_with_delta (r : L.Rule.t) j =
  let q = rule_query r in
  let atoms = List.mapi (fun i a -> (i, a)) q.A.atoms in
  let delta_atom = List.assoc j atoms in
  let rec order bound = function
    | [] -> []
    | first :: _ as rest ->
      let shares (_, a) = List.exists (fun v -> List.mem v bound) (L.Atom.vars a) in
      let i, a = Option.value ~default:first (List.find_opt shares rest) in
      a :: order (L.Atom.vars a @ bound) (List.remove_assoc i rest)
  in
  {
    q with
    A.atoms =
      { delta_atom with L.Atom.pred = delta_marker delta_atom.L.Atom.pred }
      :: order (L.Atom.vars delta_atom) (List.remove_assoc j atoms);
  }

(* A predicate that is neither derived nor declared base fails (empty), as
   in Prolog. The placeholder schema is never joined against a tuple — the
   relation is empty by construction — so its types are immaterial. *)
let prolog_fail (a : L.Atom.t) =
  let attrs =
    List.mapi (fun i _ -> (Printf.sprintf "a%d" i, R.Value.Tstr)) a.L.Atom.args
  in
  R.Relation.create ~name:a.L.Atom.pred (R.Schema.make attrs)

(* --- set-oriented base access: one conjunctive fetch per component --- *)

(* φ$<rule>$<k> — pseudo-relations standing for a fetched base component.
   The prefix cannot collide with user predicates or the Δ marker. *)
let fetch_marker = "\xcf\x86$"

let cmp_vars (_, a, b) = L.Literal.expr_vars a @ L.Literal.expr_vars b

(* Split a rule body into maximal variable-connected groups of base atoms
   (each becomes one conjunctive fetch, carrying the comparisons it covers
   as shipped selections) and a local residue: derived atoms, unshippable
   comparisons, and one pseudo-atom per group over the group's variables.
   Ground base atoms stay local and resolve through a whole-extension
   fetch, as do base atoms reached outside any prepared rule. *)
let componentize kb (r : L.Rule.t) =
  let indexed = List.mapi (fun i l -> (i, l)) r.L.Rule.body in
  let base_atoms =
    List.filter_map
      (fun (i, l) ->
        match l with
        | L.Literal.Rel a when L.Kb.is_base kb a.L.Atom.pred && L.Atom.vars a <> [] ->
          Some (i, a)
        | _ -> None)
      indexed
  in
  let groups =
    List.fold_left
      (fun groups (i, a) ->
        let avars = L.Atom.vars a in
        let touches group =
          List.exists
            (fun (_, b) -> List.exists (fun v -> List.mem v avars) (L.Atom.vars b))
            group
        in
        let touching, rest = List.partition touches groups in
        (List.concat touching @ [ (i, a) ]) :: rest)
      [] base_atoms
  in
  let groups =
    List.map (List.sort (fun (i, _) (j, _) -> compare i j)) groups
    |> List.sort (fun g1 g2 -> compare (fst (List.hd g1)) (fst (List.hd g2)))
  in
  let group_vars group =
    let seen = Hashtbl.create 8 in
    List.concat_map (fun (_, a) -> L.Atom.vars a) group
    |> List.filter (fun v ->
           if Hashtbl.mem seen v then false
           else begin
             Hashtbl.add seen v ();
             true
           end)
  in
  let cmps =
    List.filter_map
      (fun (i, l) ->
        match l with
        | L.Literal.Cmp (op, a, b) -> Some (i, (op, a, b))
        | L.Literal.Rel _ -> None)
      indexed
  in
  let shipped = Hashtbl.create 8 in
  let built =
    List.mapi
      (fun k group ->
        let vars = group_vars group in
        let covered =
          List.filter
            (fun (i, c) ->
              let cv = cmp_vars c in
              cv <> []
              && (not (Hashtbl.mem shipped i))
              && List.for_all (fun v -> List.mem v vars) cv)
            cmps
        in
        List.iter (fun (i, _) -> Hashtbl.replace shipped i ()) covered;
        let pseudo = fetch_marker ^ r.L.Rule.id ^ "$" ^ string_of_int k in
        let head = List.map (fun v -> L.Term.Var v) vars in
        let conj = A.conj ~cmps:(List.map snd covered) head (List.map snd group) in
        (group, pseudo, vars, conj))
      groups
  in
  let replacement = Hashtbl.create 8 in
  List.iter
    (fun (group, pseudo, vars, _) ->
      List.iteri
        (fun pos (i, _) ->
          if pos = 0 then
            Hashtbl.replace replacement i
              (`First (L.Atom.make pseudo (List.map (fun v -> L.Term.Var v) vars)))
          else Hashtbl.replace replacement i `Drop)
        group)
    built;
  let body' =
    List.filter_map
      (fun (i, l) ->
        match Hashtbl.find_opt replacement i with
        | Some (`First pa) -> Some (L.Literal.Rel pa)
        | Some `Drop -> None
        | None -> if Hashtbl.mem shipped i then None else Some l)
      indexed
  in
  ({ r with L.Rule.body = body' }, List.map (fun (_, p, _, c) -> (p, c)) built)

(* A rule prepared for evaluation: its full query (round 0, naive rounds)
   and, per derived body occurrence, that occurrence's predicate with the
   delta-first query restricted to it (semi-naive rounds). *)
type prepared_rule = {
  full : A.conj;
  deltas : (string * A.conj) list;
}

let run kb ?(skip_rules = []) ?(algorithm = `Semi_naive) ~source:src query =
  let skip = Hashtbl.create (max 4 (List.length skip_rules)) in
  List.iter (fun id -> Hashtbl.replace skip id ()) skip_rules;
  let derived = reachable kb query in
  let derived_set = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace derived_set p ()) derived;
  let is_derived p = Hashtbl.mem derived_set p in
  let fetches = ref 0 in
  let fetched_tuples = ref 0 in
  (* Rules are prepared once per predicate: skip-filtered, and in fetch
     mode componentized so each base group is one pseudo-atom whose fetch
     key is computed here, once. *)
  let pseudo_defs : (string, A.conj * A.key) Hashtbl.t = Hashtbl.create 16 in
  let prepared : (string, prepared_rule list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let rs =
        List.filter
          (fun (r : L.Rule.t) -> not (Hashtbl.mem skip r.L.Rule.id))
          (L.Kb.rules_for kb p)
      in
      let rs =
        match src with
        | Extensions _ -> rs
        | Conj_fetch _ ->
          List.map
            (fun r ->
              let r', comps = componentize kb r in
              List.iter
                (fun (pseudo, c) -> Hashtbl.replace pseudo_defs pseudo (c, A.key c))
                comps;
              r')
            rs
      in
      let prepare r =
        {
          full = rule_query r;
          deltas =
            List.concat
              (List.mapi
                 (fun j (a : L.Atom.t) ->
                   if is_derived a.L.Atom.pred then
                     [ (a.L.Atom.pred, rule_query_with_delta r j) ]
                   else [])
                 (body_atoms r));
        }
      in
      Hashtbl.replace prepared p (List.map prepare rs))
    derived;
  let rules_for p = Option.value ~default:[] (Hashtbl.find_opt prepared p) in
  (* Fail loudly up front when a componentized base relation has no catalog
     schema — fetching it could only silently type-mismatch. *)
  (match src with
   | Extensions _ -> ()
   | Conj_fetch { schema; _ } ->
     Hashtbl.iter
       (fun _ ((c : A.conj), _) ->
         List.iter
           (fun (a : L.Atom.t) ->
             if schema a.L.Atom.pred = None then
               raise (Unknown_base_relation a.L.Atom.pred))
           c.A.atoms)
       pseudo_defs);
  let base_schema p =
    match src with
    | Extensions base -> Option.map R.Relation.schema (base p)
    | Conj_fetch { schema; _ } -> schema p
  in
  (* Pseudo-relation schemas are static: derivable from the base schemas
     before anything is fetched. *)
  let pseudo_schema = Hashtbl.create 16 in
  Hashtbl.iter
    (fun pseudo (c, _) ->
      Hashtbl.replace pseudo_schema pseudo (Braid_caql.Analyze.schema_of_conj base_schema c))
    pseudo_defs;
  let total : (string, R.Relation.t) Hashtbl.t = Hashtbl.create 16 in
  let delta : (string, R.Relation.t) Hashtbl.t = Hashtbl.create 16 in
  let schema_of name =
    match delta_of name with
    | Some p -> Option.map R.Relation.schema (Hashtbl.find_opt delta p)
    | None ->
      (match Hashtbl.find_opt total name with
       | Some r -> Some (R.Relation.schema r)
       | None ->
         (match Hashtbl.find_opt pseudo_schema name with
          | Some s -> Some s
          | None -> base_schema name))
  in
  (* Fetches are memoized on the canonical conjunct: base extensions are
     immutable during a fixpoint, so each distinct body fetch is issued
     once and reused across rounds (rounds after the first would be exact
     cache hits anyway). *)
  let fetch_memo : R.Relation.t A.Key_table.t = A.Key_table.create 16 in
  let do_fetch name ((c : A.conj), key) =
    match A.Key_table.find_opt fetch_memo key with
    | Some r -> R.Relation.with_name name r
    | None ->
      (match src with
       | Extensions _ -> assert false
       | Conj_fetch { fetch; _ } ->
         incr fetches;
         let r = fetch c in
         fetched_tuples := !fetched_tuples + R.Relation.cardinality r;
         A.Key_table.replace fetch_memo key r;
         R.Relation.with_name name r)
  in
  (* Whole-extension fetch definitions, built once per base predicate. *)
  let whole_base_defs = Hashtbl.create 8 in
  let whole_base p =
    let def =
      match Hashtbl.find_opt whole_base_defs p with
      | Some def -> def
      | None ->
        let def =
          Option.map
            (fun arity ->
              let vars = List.init arity (fun i -> L.Term.Var (Printf.sprintf "V%d" i)) in
              let c = A.conj vars [ L.Atom.make p vars ] in
              (c, A.key c))
            (L.Kb.base_arity kb p)
        in
        Hashtbl.add whole_base_defs p def;
        def
    in
    Option.map (do_fetch p) def
  in
  (* sources: [source] resolves delta markers to the previous round's
     delta; derived predicates to their running totals; pseudo-atoms to
     their (memoized) fetched components. A predicate declared base but
     absent from the supplied extensions fails loudly — an empty all-[Tstr]
     placeholder would silently type-mismatch an int-keyed join. *)
  let source (a : L.Atom.t) =
    let p = a.L.Atom.pred in
    match delta_of p with
    | Some d -> Hashtbl.find delta d
    | None ->
      (match Hashtbl.find_opt total p with
       | Some r -> r
       | None ->
         (match src with
          | Extensions base ->
            (match base p with
             | Some r -> r
             | None ->
               if L.Kb.is_base kb p then raise (Unknown_base_relation p)
               else prolog_fail a)
          | Conj_fetch { schema; _ } ->
            (match Hashtbl.find_opt pseudo_defs p with
             | Some def -> do_fetch p def
             | None ->
               if L.Kb.is_base kb p then begin
                 if schema p = None then raise (Unknown_base_relation p);
                 match whole_base p with
                 | Some r -> r
                 | None -> raise (Unknown_base_relation p)
               end
               else prolog_fail a)))
  in
  (* Pre-create empty extensions so recursive references resolve in round
     one; schema inferred from the first defining rule. *)
  List.iter
    (fun p ->
      match rules_for p with
      | [] -> Hashtbl.replace total p (R.Relation.create ~name:p (R.Schema.make []))
      | r :: _ ->
        let schema = Braid_caql.Analyze.schema_of_conj schema_of r.full in
        Hashtbl.replace total p (R.Relation.create ~name:p schema))
    derived;
  let tuples_produced = ref 0 in
  let iterations = ref 0 in
  let eval ?index q =
    let rel = Braid_caql.Eval.conj ?index ~source ~schema_of q in
    tuples_produced := !tuples_produced + R.Relation.cardinality rel;
    rel
  in
  (match algorithm with
   | `Naive ->
     let union_distinct rels =
       match rels with
       | [] -> None
       | first :: rest -> Some (R.Relation.distinct (List.fold_left R.Ops.union_all first rest))
     in
     let changed = ref true in
     while !changed do
       incr iterations;
       changed := false;
       List.iter
         (fun p ->
           match union_distinct (List.map (fun r -> eval r.full) (rules_for p)) with
           | None -> ()
           | Some combined ->
             let previous = Hashtbl.find total p in
             if R.Relation.cardinality combined <> R.Relation.cardinality previous then begin
               Hashtbl.replace total p (R.Relation.with_name p combined);
               changed := true
             end)
         derived
     done
   | `Semi_naive ->
     (* Hash indexes kept for the whole run, per predicate and column list,
        each built on first use. Fetched components and base extensions do
        not change during a run; a derived total only grows, and [append]
        adds every new tuple to the total's indexes. Deltas are never
        indexed: the delta-first order makes them the probe side. *)
     let indexes : (string, (int list * R.Index.t) list) Hashtbl.t = Hashtbl.create 16 in
     (* Pseudo-atoms of different rules with one fetch key resolve to one
        memoized relation, so they share its indexes under one name. *)
     let shared_name = Hashtbl.create 16 in
     let first_by_key = A.Key_table.create 16 in
     Hashtbl.iter
       (fun pseudo (_, key) ->
         match A.Key_table.find_opt first_by_key key with
         | Some first -> Hashtbl.replace shared_name pseudo first
         | None -> A.Key_table.replace first_by_key key pseudo)
       pseudo_defs;
     let index (a : L.Atom.t) cols =
       let p = Option.value ~default:a.L.Atom.pred (Hashtbl.find_opt shared_name a.L.Atom.pred) in
       if Option.is_some (delta_of p) then None
       else
         let kept = Option.value ~default:[] (Hashtbl.find_opt indexes p) in
         match List.assoc_opt cols kept with
         | Some _ as ix -> ix
         | None ->
           let ix = R.Index.build (source a) cols in
           Hashtbl.replace indexes p ((cols, ix) :: kept);
           Some ix
     in
     (* Totals are append-only and owned here: a membership set per derived
        predicate filters a round's contributions, and each unseen tuple is
        appended in place to the total, to its indexes and to the round's
        delta, which [append] returns. A round costs the size of its
        contributions, never that of the total. *)
     let members : (string, unit R.Relation.Tuple_tbl.t) Hashtbl.t = Hashtbl.create 16 in
     let append p contributions =
       let total_p = Hashtbl.find total p in
       let seen = Hashtbl.find members p in
       let kept = Option.value ~default:[] (Hashtbl.find_opt indexes p) in
       let fresh = R.Relation.create ~name:p (R.Relation.schema total_p) in
       List.iter
         (R.Relation.iter (fun t ->
              if not (R.Relation.Tuple_tbl.mem seen t) then begin
                R.Relation.Tuple_tbl.add seen t ();
                R.Relation.add total_p t;
                List.iter (fun (_, ix) -> R.Index.add ix t) kept;
                R.Relation.add fresh t
              end))
         contributions;
       fresh
     in
     (* round 0: full evaluation (recursive occurrences see empty totals).
        A total takes the schema of its first rule's result; indexes kept
        on the empty placeholder are dropped with it. *)
     incr iterations;
     List.iter
       (fun p ->
         match List.map (fun r -> eval ~index r.full) (rules_for p) with
         | [] -> ()
         | first :: _ as contributions ->
           Hashtbl.replace total p (R.Relation.create ~name:p (R.Relation.schema first));
           Hashtbl.replace members p (R.Relation.Tuple_tbl.create 64);
           Hashtbl.remove indexes p;
           Hashtbl.replace delta p (append p contributions))
       derived;
     let has_delta p =
       match Hashtbl.find_opt delta p with
       | Some d -> R.Relation.cardinality d > 0
       | None -> false
     in
     while List.exists has_delta derived do
       incr iterations;
       let next_delta = Hashtbl.create 16 in
       List.iter
         (fun p ->
           (* each rule once per derived occurrence with a non-empty delta,
              that occurrence resolved through the delta *)
           let contributions =
             List.concat_map
               (fun r ->
                 List.filter_map
                   (fun (d, q) -> if has_delta d then Some (eval ~index q) else None)
                   r.deltas)
               (rules_for p)
           in
           match contributions with
           | [] -> ()
           | _ ->
             let fresh = append p contributions in
             if R.Relation.cardinality fresh > 0 then Hashtbl.replace next_delta p fresh)
         derived;
       Hashtbl.reset delta;
       Hashtbl.iter (fun p d -> Hashtbl.replace delta p d) next_delta
     done);
  let answer =
    Braid_caql.Eval.conj ~source ~schema_of
      (A.conj (List.map (fun v -> L.Term.Var v) (L.Atom.vars query)) [ query ])
  in
  let derived_sizes =
    List.map
      (fun p ->
        ( p,
          match Hashtbl.find_opt total p with
          | Some r -> R.Relation.cardinality r
          | None -> 0 ))
      derived
  in
  {
    result = answer;
    iterations = !iterations;
    tuples_produced = !tuples_produced;
    fetches = !fetches;
    fetched_tuples = !fetched_tuples;
    derived_sizes;
  }

let solve kb ?skip_rules ?algorithm ~base query =
  run kb ?skip_rules ?algorithm ~source:(Extensions base) query
