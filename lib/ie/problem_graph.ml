module L = Braid_logic

type goal_kind =
  | Base
  | Derived
  | Undefined

type or_node = {
  goal : L.Atom.t;
  kind : goal_kind;
  recursive_ref : bool;
  mutable branches : and_node list;
}

and and_node = {
  rule : L.Rule.t;
  mutable children : child list;
}

and child =
  | Subgoal of or_node
  | Condition of L.Literal.t

type t = {
  root : or_node;
  query : L.Atom.t;
}

let kind_of kb p =
  if L.Kb.is_base kb p then Base else if L.Kb.is_derived kb p then Derived else Undefined

let extract kb query =
  let counter = ref 0 in
  let rec expand goal ancestors =
    let p = goal.L.Atom.pred in
    let kind = kind_of kb p in
    (* "Only a single instance of the recursive definition will appear in
       the subgraph for each recursive relation occurrence": the query's
       occurrence expands, the occurrence inside that instance expands once
       more (it is a distinct occurrence), and the next self-reference is
       cut. *)
    let occurrences = List.length (List.filter (String.equal p) ancestors) in
    let recursive_ref = kind = Derived && occurrences >= 2 in
    let node = { goal; kind; recursive_ref; branches = [] } in
    if kind = Derived && not recursive_ref then
      node.branches <-
        List.filter_map
          (fun rule ->
            incr counter;
            let rule = L.Rule.rename_apart !counter rule in
            (* Unify head-first so instance variables are rewritten to the
               caller's: bindings (and hence consumer annotations) then
               propagate across rule boundaries. *)
            match L.Unify.atoms L.Subst.empty rule.L.Rule.head goal with
            | None -> None
            | Some unifier ->
              (* Push the unifier through the instance: this is the first
                 round of constant propagation. *)
              let head = L.Subst.apply_atom unifier rule.L.Rule.head in
              let body = List.map (L.Literal.apply unifier) rule.L.Rule.body in
              let instance = { rule with L.Rule.head; body } in
              let children =
                List.map
                  (function
                    | L.Literal.Rel a -> Subgoal (expand a (p :: ancestors))
                    | L.Literal.Cmp _ as c -> Condition c)
                  body
              in
              Some { rule = instance; children })
          (L.Kb.rules_for kb p);
    node
  in
  { root = expand query []; query }

type size = { or_nodes : int; and_nodes : int; conditions : int }

let size t =
  let rec or_size acc node =
    let acc = { acc with or_nodes = acc.or_nodes + 1 } in
    List.fold_left and_size acc node.branches
  and and_size acc branch =
    let acc = { acc with and_nodes = acc.and_nodes + 1 } in
    List.fold_left
      (fun acc child ->
        match child with
        | Subgoal n -> or_size acc n
        | Condition _ -> { acc with conditions = acc.conditions + 1 })
      acc branch.children
  in
  or_size { or_nodes = 0; and_nodes = 0; conditions = 0 } t.root

let rule_ids t =
  let ids = Hashtbl.create 16 in
  let rec go node =
    List.iter
      (fun b ->
        Hashtbl.replace ids b.rule.L.Rule.id ();
        List.iter (function Subgoal n -> go n | Condition _ -> ()) b.children)
      node.branches
  in
  go t.root;
  Hashtbl.fold (fun id () acc -> id :: acc) ids [] |> List.sort String.compare

let base_goals t =
  let out = ref [] in
  let rec go node =
    (match node.kind with
     | Base ->
       if not (List.exists (L.Atom.equal node.goal) !out) then out := node.goal :: !out
     | Derived | Undefined -> ());
    List.iter
      (fun b ->
        List.iter
          (function Subgoal n -> go n | Condition _ -> ())
          b.children)
      node.branches
  in
  go t.root;
  List.rev !out

let pp ppf t =
  let rec pp_or indent node =
    Format.fprintf ppf "%s%a%s%s@," indent L.Atom.pp node.goal
      (match node.kind with Base -> " [base]" | Derived -> "" | Undefined -> " [undefined]")
      (if node.recursive_ref then " [rec]" else "");
    List.iter (pp_and (indent ^ "  ")) node.branches
  and pp_and indent branch =
    Format.fprintf ppf "%s<%s>@," indent branch.rule.L.Rule.id;
    List.iter
      (function
        | Subgoal n -> pp_or (indent ^ "  ") n
        | Condition c -> Format.fprintf ppf "%s  %a@," indent L.Literal.pp c)
      branch.children
  in
  Format.fprintf ppf "@[<v>";
  pp_or "" t.root;
  Format.fprintf ppf "@]"
