(* The process gauges, sampled when they are read ([sample_now] before
   a metrics export), so no domain runs just to refresh them. A sample
   reads a [Gc.quick_stat] on the reading domain — the worked-on
   domains are never touched. *)

let t0_us = Clock.now_us ()

let g_uptime =
  Metrics.gauge ~help:"Seconds since process start" "process_uptime_seconds"

let g_heap_words =
  Metrics.gauge ~help:"Major heap size in words" "ocaml_gc_heap_words"

let g_major_words =
  Metrics.gauge
    ~help:"Cumulative words allocated in (or promoted to) the major heap"
    "ocaml_gc_major_words"

let g_minor_collections =
  Metrics.gauge ~help:"Cumulative minor collections"
    "ocaml_gc_minor_collections"

let g_major_collections =
  Metrics.gauge ~help:"Cumulative major collection cycles"
    "ocaml_gc_major_collections"

let sample_now () =
  let stat = Gc.quick_stat () in
  Metrics.set_gauge g_uptime ((Clock.now_us () -. t0_us) /. 1e6);
  Metrics.set_gauge g_heap_words (float_of_int stat.Gc.heap_words);
  Metrics.set_gauge g_major_words stat.Gc.major_words;
  Metrics.set_gauge g_minor_collections
    (float_of_int stat.Gc.minor_collections);
  Metrics.set_gauge g_major_collections
    (float_of_int stat.Gc.major_collections)
