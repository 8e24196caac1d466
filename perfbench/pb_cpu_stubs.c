/* CPU affinity of the calling thread, for Pb_cpu.  Linux only; elsewhere
   no CPU is reported and nothing is pinned. */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>
#endif

/* The CPUs the calling thread may run on, in ascending order. */
value pb_cpu_allowed(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
#ifdef __linux__
  cpu_set_t set;
  int n = 0, k = 0;
  if (sched_getaffinity(0, sizeof set, &set) == 0) n = CPU_COUNT(&set);
  cpus = caml_alloc(n, 0);
  for (int c = 0; c < CPU_SETSIZE && k < n; c++)
    if (CPU_ISSET(c, &set)) Store_field(cpus, k++, Val_int(c));
#else
  cpus = caml_alloc(0, 0);
#endif
  CAMLreturn(cpus);
}

/* Restrict the calling thread to [cpus]; false if the system refused. */
value pb_cpu_set(value cpus)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    int c = Int_val(Field(cpus, i));
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
#else
  (void)cpus;
  return Val_false;
#endif
}
