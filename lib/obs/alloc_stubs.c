/* Per-domain GC word counters, read without allocating.

   Gc.counters reads the same fields, but on OCaml 5.1 it boxes them
   into three floats and then a tuple without registering the floats as
   roots: a minor collection inside one of those allocations (this
   domain's, or a stop-the-world one another domain requests) leaves the
   tuple pointing into reclaimed minor-heap memory. These readers
   return untagged integers and never allocate. */

#include <caml/mlvalues.h>
#include <caml/domain_state.h>

/* Words promoted from this domain's minor heap. */
intnat obs_alloc_promoted_words(value unit)
{
  (void)unit;
  return (intnat)Caml_state->stat_promoted_words;
}

value obs_alloc_promoted_words_byte(value unit)
{
  return Val_long(obs_alloc_promoted_words(unit));
}

/* Words this domain allocated in the major heap, promotions included:
   the total of past major slices plus the words since the last one. */
intnat obs_alloc_major_words(value unit)
{
  (void)unit;
  return (intnat)(Caml_state->stat_major_words + Caml_state->allocated_words);
}

value obs_alloc_major_words_byte(value unit)
{
  return Val_long(obs_alloc_major_words(unit));
}
