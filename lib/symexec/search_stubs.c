/* Solver.search for the two kernels that score a move without an OCaml
   closure: Ints, scored here, and Table, whose missing entries one OCaml
   callback fills.  Solver.solve dispatches here on the kernel
   Solver.compile_problem chose.  The OCaml search, which only scores in
   floats, runs Floats, and over Solver.float_problem of the same
   condition it is the reference test_symexec compares these loops
   against: the same model, draws and evaluations.

   Draw contract: the xorshift128+ state is read from the Rng.t bytes
   (s0, s1, native byte order, as Rng.get64 reads them), stepped in
   registers and written back, so the caller's generator ends exactly where
   the OCaml search leaves it.  Every draw is the one Rng makes: Rng.int is
   (next >> 2) mod bound, Rng.int_range lo hi is lo + Rng.int (hi - lo + 1),
   Rng.bool the low bit and Rng.coin the sign of the draw.  The loops make
   the same restarts, steps, deltas and clamps as the OCaml search,
   compare the same objective values in the same order, and a tie draws a
   coin where it does there.  A step tries each value without writing it
   to the model and writes the value it keeps.

   The problem, the model and the table are the OCaml values Solver built,
   read and written in place by field position (see Solver's [problem]
   and [kernel]).  Nothing is global, so searches on several domains at
   once share no state.  The Ints stub never enters the runtime and is
   declared [@@noalloc]: it mallocs one buffer for its step and its
   constraint distances, frees it before returning, and reports a failed
   malloc to Solver, which raises Out_of_memory.  The Table stub
   allocates nothing; it registers its arguments, finds them again after
   each fill, and on an exception from a fill stores the generator and
   the counts before raising it on.  Each stub takes at most five boxed
   arguments, so one C function serves native code and bytecode.  The
   constants below are Solver's; the reference test fails if they drift.
   Build with the default flags: the loops do integer arithmetic and
   float comparisons only, and -ffast-math would break the NaN test of a
   missing table entry. */

#define CAML_NAME_SPACE
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/callback.h>
#include <caml/fail.h>

/* Solver.int_min, int_max, restarts, steps and big_penalty */
#define INT_MIN_V (-32)
#define INT_MAX_V 32
#define RESTARTS 12
#define STEPS 200
#define BIG_PENALTY 1e9

/* Solver.deltas */
static const intnat deltas[10] = { 1, -1, 2, -2, 4, -4, 8, -8, 16, -16 };

/* Field positions of Solver.problem and of its Table constructor; the
   Ints constructor's one field is its code array */
#define P_KINDS 0
#define P_DEPS 1
#define P_KERNEL 2
#define P_EVALS 3
#define P_COMPUTED 4
#define T_READ 0
#define T_BASE 1
#define T_TABLE 2

typedef struct { uint64_t s0, s1; } rng;

static inline rng rng_load(value b)
{
  rng r;
  memcpy(&r.s0, Bytes_val(b), 8);
  memcpy(&r.s1, Bytes_val(b) + 8, 8);
  return r;
}

static inline void rng_store(value b, const rng *r)
{
  memcpy(Bytes_val(b), &r->s0, 8);
  memcpy(Bytes_val(b) + 8, &r->s1, 8);
}

/* Rng.next */
static inline uint64_t next(rng *r)
{
  uint64_t x = r->s0;
  const uint64_t y = r->s1;
  r->s0 = y;
  x ^= x << 23;
  x = (x ^ y) ^ ((x >> 17) ^ (y >> 26));
  r->s1 = x;
  return x + y;
}

/* Rng.int, for bound > 0 */
static inline intnat draw_int(rng *r, intnat bound) { return (intnat)(next(r) >> 2) % bound; }

/* Rng.coin */
static inline int coin(rng *r) { return (int64_t)next(r) >= 0; }

/* One variable of a restart's model: Rng.bool for a bool, Rng.int_range
   int_min int_max for any other type. */
static inline value draw_start(rng *r, int is_bool)
{
  return is_bool ? Val_long(next(r) & 1)
                 : Val_long(INT_MIN_V + draw_int(r, INT_MAX_V - INT_MIN_V + 1));
}

static inline intnat clamp(intnat v)
{
  return v < INT_MIN_V ? INT_MIN_V : v > INT_MAX_V ? INT_MAX_V : v;
}

static inline void add_counts(value p, intnat evals, intnat computed)
{
  Field(p, P_EVALS) = Val_long(Long_val(Field(p, P_EVALS)) + evals);
  Field(p, P_COMPUTED) = Val_long(Long_val(Field(p, P_COMPUTED)) + computed);
}

/* ------------------------------------------------------------------ */
/* Integer kernel                                                      */
/* ------------------------------------------------------------------ */

/* The distance of kind [kind] at [t] (see Solver.encode), selected
   without a branch: one condition mixes kinds, and a branch on the kind
   mispredicts. */
static inline intnat kind_dist(intnat kind, intnat t)
{
  const intnat pos = t > 0 ? t : 0, abs = t >= 0 ? t : -t, zero = t == 0;
  return kind == 0 ? pos : kind == 1 ? abs : zero;
}

/* Constraint k's distance under the model */
static inline intnat int_dist(const value *code, const value *model, intnat k)
{
  const value *c = code + 4 * k;
  return kind_dist(Long_val(c[0]), Long_val(model[Long_val(c[1])])
                                     - Long_val(model[Long_val(c[2])]) + Long_val(c[3]));
}

/* A constraint of the variable a step moves, every other model cell
   fixed for the step: at value y its t is sign * y + rest. */
struct dep { intnat sign, rest, kind; };

/* The sum of the step's constraint distances with its variable at y */
static inline intnat dep_sum(const struct dep *dp, intnat nd, intnat y)
{
  intnat s = 0;
  for (intnat j = 0; j < nd; j++) s += kind_dist(dp[j].kind, dp[j].sign * y + dp[j].rest);
  return s;
}

/* Solver.search over an Ints problem.  The objective is the int sum of
   the constraint distances, kept in [dist].  A step lays out the moved
   variable's constraints in [dp] (at most as many as the longest
   dependency list).  The objective less their distances, [others], stays
   the same through the step, since a kept move changes both by the same
   amount; so a value's objective is [others] plus its constraints'
   distances.  The step writes the kept value's distances back to [dist].
   Every evaluation is computed.  Returns 1 if the model solves, 0 if
   not, and -1 if the buffer could not be allocated. */
value liger_search_ints(value rngv, value tbool, value p, value modelv)
{
  const value deps = Field(p, P_DEPS), codev = Field(Field(p, P_KERNEL), 0);
  const value *code = Op_val(codev), *kind = Op_val(Field(p, P_KINDS));
  value *model = Op_val(modelv);
  const intnat n = Wosize_val(Field(p, P_KINDS)), m = Wosize_val(codev) / 4;
  intnat widest = 0;
  for (intnat i = 0; i < n; i++)
    if ((intnat)Wosize_val(Field(deps, i)) > widest) widest = Wosize_val(Field(deps, i));
  struct dep *dp = malloc(sizeof(struct dep) * (widest + 1) + sizeof(intnat) * (m + 1));
  if (dp == NULL) return Val_int(-1);
  intnat *dist = (intnat *)(dp + widest + 1);
  rng r = rng_load(rngv);
  intnat evals = 0;
  int solved = 0;
  for (int attempt = 0; !solved && attempt < RESTARTS; attempt++) {
    for (intnat i = 0; i < n; i++) model[i] = draw_start(&r, kind[i] == tbool);
    intnat obj = 0;
    for (intnat k = 0; k < m; k++) {
      dist[k] = int_dist(code, model, k);
      obj += dist[k];
    }
    evals++;
    for (int step = 0; obj > 0 && obj < (intnat)BIG_PENALTY && step < STEPS; step++) {
      const intnat i = draw_int(&r, n);
      const value *di = Op_val(Field(deps, i));
      const intnat nd = Wosize_val(Field(deps, i)), x0 = Long_val(model[i]);
      intnat others = obj;
      for (intnat j = 0; j < nd; j++) {
        const value *c = code + 4 * Long_val(di[j]);
        const intnat u = Long_val(c[1]), v = Long_val(c[2]);
        dp[j].sign = (u == i) - (v == i);
        dp[j].rest = (u == i ? 0 : Long_val(model[u])) - (v == i ? 0 : Long_val(model[v]))
          + Long_val(c[3]);
        dp[j].kind = Long_val(c[0]);
        others -= dist[Long_val(di[j])];
      }
      intnat x = x0;
      if (kind[i] == tbool) {
        /* a flip is kept only if it lowers the objective */
        const intnat s = others + dep_sum(dp, nd, 1 - x0);
        evals++;
        if (s < obj) {
          obj = s;
          x = 1 - x0;
        }
      }
      else
        for (int d = 0; d < 10; d++) {
          /* a step that ties is kept on a coin; the objective stays, so
             the coin picks the value without a branch */
          const intnat y = clamp(x0 + deltas[d]);
          const intnat s = others + dep_sum(dp, nd, y);
          evals++;
          if (s < obj) {
            obj = s;
            x = y;
          }
          else if (s == obj) {
            const int heads = coin(&r);
            x = heads ? y : x;
          }
        }
      model[i] = Val_long(x);
      for (intnat j = 0; j < nd; j++)
        dist[Long_val(di[j])] = kind_dist(dp[j].kind, dp[j].sign * x + dp[j].rest);
    }
    solved = obj == 0;
  }
  free(dp);
  rng_store(rngv, &r);
  add_counts(p, evals, evals);
  return Val_int(solved);
}

/* ------------------------------------------------------------------ */
/* Tabulated kernel                                                    */
/* ------------------------------------------------------------------ */

/* A Table search in progress.  [rngv], [p], [model] and [fill] point to
   the stub's registered roots.  [kind], [mdl] and [tab] address the
   kinds, the model and the table directly: the collector can move them
   only while a fill runs OCaml code, and [locate] finds them again after
   each fill. */
struct tsearch {
  rng r;
  intnat evals, computed, read, base;
  value *rngv, *p, *model, *fill;
  const value *kind;
  value *mdl;
  const double *tab;
};

static void locate(struct tsearch *s)
{
  s->kind = Op_val(Field(*s->p, P_KINDS));
  s->mdl = Op_val(*s->model);
  s->tab = (const double *)Op_val(Field(Field(*s->p, P_KERNEL), T_TABLE));
}

static void tsearch_finish(struct tsearch *s)
{
  rng_store(*s->rngv, &s->r);
  add_counts(*s->p, s->evals, s->computed);
}

/* Entry k filled by [fill kernel model], a full float scoring in OCaml,
   with model cell i at y.  An exception from it leaves the generator and
   the counts where the OCaml search would leave them, and is raised on. */
static double fill_entry(struct tsearch *s, intnat i, intnat y, intnat k)
{
  s->computed++;
  s->mdl[i] = Val_long(y);
  const value res = caml_callback2_exn(*s->fill, Field(*s->p, P_KERNEL), *s->model);
  if (Is_exception_result(res)) {
    tsearch_finish(s);
    caml_raise(Extract_exception(res));
  }
  locate(s);
  return s->tab[k];
}

/* The objective of the model with cell i at y: the table entry for the
   value of [read] there, NaN until filled.  The index is always inside
   the table: search only draws or steps to values in the domain the table
   covers. */
static inline double entry(struct tsearch *s, intnat i, intnat y)
{
  const intnat k = (i == s->read ? y : Long_val(s->mdl[s->read])) - s->base;
  s->evals++;
  const double e = s->tab[k];
  return isnan(e) ? fill_entry(s, i, y, k) : e;
}

/* Solver.search over a Table problem.  A step tries its values without
   storing them in the model (only a fill reads the model) and stores the
   value it keeps.  Returns whether the model solves. */
value liger_search_table(value rngv, value tbool, value p, value model, value fill)
{
  CAMLparam5(rngv, tbool, p, model, fill);
  struct tsearch s = { rng_load(rngv), 0, 0, Long_val(Field(Field(p, P_KERNEL), T_READ)),
                       Long_val(Field(Field(p, P_KERNEL), T_BASE)), &rngv, &p, &model, &fill,
                       NULL, NULL, NULL };
  const intnat n = Wosize_val(Field(p, P_KINDS));
  int solved = 0;
  locate(&s);
  for (int attempt = 0; !solved && attempt < RESTARTS; attempt++) {
    for (intnat i = 0; i < n; i++) s.mdl[i] = draw_start(&s.r, s.kind[i] == tbool);
    double score = entry(&s, s.read, Long_val(s.mdl[s.read]));
    for (int step = 0; score > 0.0 && score < BIG_PENALTY && step < STEPS; step++) {
      const intnat i = draw_int(&s.r, n), x0 = Long_val(s.mdl[i]);
      intnat x = x0;
      if (s.kind[i] == tbool) {
        /* a flip is kept only if it lowers the objective */
        const double e = entry(&s, i, 1 - x0);
        if (e < score) {
          score = e;
          x = 1 - x0;
        }
      }
      else
        for (int d = 0; d < 10; d++) {
          /* a step that ties is kept on a coin */
          const intnat y = clamp(x0 + deltas[d]);
          const double e = entry(&s, i, y);
          if (e < score) {
            score = e;
            x = y;
          }
          else if (e == score) {
            const int heads = coin(&s.r);
            x = heads ? y : x;
          }
        }
      s.mdl[i] = Val_long(x);
    }
    solved = score == 0.0;
  }
  tsearch_finish(&s);
  CAMLreturn(Val_bool(solved));
}
