(** Runs one workload for a time budget and reports its metrics.

    An episode builds a fresh system (its build time is a set-up sample),
    then issues one of the workload's op sequences as one closed-loop
    client, timing every op and counting the words it allocates. A cycle
    runs every sequence once; a run makes as many cycles as the
    workload's budget per cycle fits in the time budget, at least two. Each op's latency is its
    mean over the cycles.

    An op fails when it raises, when a CAQL answer it got came back
    Degraded, or when its answer is wrong. Answers are checked after each
    op, outside its timed interval: goals against a local fixpoint over the
    generated tables, CMS reads against [Braid_check.Oracle.ground_truth]
    over the remote's current tables, deletes by their return value.

    Untraced runs report the end-to-end metrics. Their first cycle is not
    checked and builds one system per episode, so the heap peak read after
    it is the systems' own; later cycles repeat the same work and check it.

    Traced runs alternate untraced and traced cycles. A traced episode
    times every fetch through a [Cms.set_fetcher] wrapper calling
    [Cms.exec_remote] and times direct CMS calls; for the IE workloads it
    replays each goal's advice and CAQL stream through [Cms.begin_session]
    + [Cms.query] on a second system right after the live goal, which
    separates the CMS's time from the IE's. *)

type config = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  size : Workloads.size;
}

type report = {
  result : Result_json.t;
  lines : string list;  (** the human-readable report printed before the result *)
}

val run : config -> report
