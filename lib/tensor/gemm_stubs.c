/* The two GEMM bodies behind Tensor.gemm_{nt,nn,tn} and their _slice
   twins.  Each computes output rows [i0, i1) of C; the row-block split and
   the domain-parallel dispatch stay in OCaml (Tensor.run_rows).

   Float contract: every output element sees the same float operations, in
   the same order, as the ordered reference loops in test/test_batched.ml.
   Vectors run only across independent lanes (the four partial sums of a
   dot product) or independent output columns; nothing is reassociated.
   The file must be compiled with -ffp-contract=off, since GNU C otherwise
   fuses a*b+c into one FMA wherever the target has it (aarch64 always
   does).  No -march flag and no CPU dispatch: one build for the baseline
   ISA (SSE2 on x86-64) runs the same instructions on every host, and AVX2
   gained little over it in measurement. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* A 4-lane vector is two native 16-byte halves, lanes 0-1 and 2-3.  A
   32-byte vector_size type would be the same lanes, but without AVX GCC
   keeps such a variable in stack memory, storing and reloading every
   accumulator on each step (half the speed of this layout). */
typedef double v2d __attribute__((vector_size(16)));
typedef double v2d_u __attribute__((vector_size(16), aligned(8), may_alias));
typedef struct { v2d lo, hi; } v4d;

#define LOAD2(p) (*(const v2d_u *)(p))
#define STORE2(p, v) (*(v2d_u *)(p) = (v))

static inline v4d load4(const double *p) { v4d v = { LOAD2(p), LOAD2(p + 2) }; return v; }
static inline void store4(double *p, v4d v) { STORE2(p, v.lo); STORE2(p + 2, v.hi); }
static inline v4d add4(v4d a, v4d b) { v4d v = { a.lo + b.lo, a.hi + b.hi }; return v; }
static inline v4d mul4(v4d a, v4d b) { v4d v = { a.lo * b.lo, a.hi * b.hi }; return v; }
static inline v4d splat4(double s) { v4d v = { { s, s }, { s, s } }; return v; }

/* Output column tile of the nt body: the B rows of one tile stay in cache
   while every row of A passes over them. */
#define NT_TILE 32

/* The dot of A row [a] and B row [b] over k terms: lane l of [s] has
   taken terms p = l (mod 4) of the first k4 = 4*(k/4); the tail goes into
   lane 0, and the dot is ((s0 + s1) + s2) + s3. */
static inline double nt_finish(v4d s, const double *a, const double *b, intnat k4, intnat k)
{
  double s0 = s.lo[0];
  for (intnat p = k4; p < k; p++) s0 = s0 + a[p] * b[p];
  return ((s0 + s.lo[1]) + s.hi[0]) + s.hi[1];
}

static inline void nt_store(double *c, double alpha, double beta, double dot)
{
  double prev = beta == 0.0 ? 0.0 : beta * *c;
  *c = prev + alpha * dot;
}

/* C[i, j] <- (beta = 0 ? 0 : beta*C[i, j]) + alpha * (A row i . B row j)
   for i in [i0, i1), j in [0, n); A is m x k, B row j starts at
   j*ld + boff, C is m x n.  Four output columns per pass share each load
   of the A row. */
static void nt_rows(double alpha, double beta, intnat i0, intnat i1, intnat n, intnat k,
                    intnat ld, intnat boff, const double *a, const double *b, double *c)
{
  const intnat k4 = k & ~(intnat)3;
  for (intnat jb = 0; jb < n; jb += NT_TILE) {
    const intnat j1 = jb + NT_TILE < n ? jb + NT_TILE : n;
    for (intnat i = i0; i < i1; i++) {
      const double *ar = a + i * k;
      double *cr = c + i * n;
      intnat j = jb;
      for (; j + 3 < j1; j += 4) {
        const double *b0 = b + j * ld + boff, *b1 = b0 + ld, *b2 = b1 + ld, *b3 = b2 + ld;
        v4d s0 = splat4(0.0), s1 = s0, s2 = s0, s3 = s0;
        for (intnat p = 0; p < k4; p += 4) {
          const v4d x = load4(ar + p);
          s0 = add4(s0, mul4(x, load4(b0 + p)));
          s1 = add4(s1, mul4(x, load4(b1 + p)));
          s2 = add4(s2, mul4(x, load4(b2 + p)));
          s3 = add4(s3, mul4(x, load4(b3 + p)));
        }
        nt_store(cr + j, alpha, beta, nt_finish(s0, ar, b0, k4, k));
        nt_store(cr + j + 1, alpha, beta, nt_finish(s1, ar, b1, k4, k));
        nt_store(cr + j + 2, alpha, beta, nt_finish(s2, ar, b2, k4, k));
        nt_store(cr + j + 3, alpha, beta, nt_finish(s3, ar, b3, k4, k));
      }
      for (; j < j1; j++) {
        const double *br = b + j * ld + boff;
        v4d s = splat4(0.0);
        for (intnat p = 0; p < k4; p += 4) s = add4(s, mul4(load4(ar + p), load4(br + p)));
        nt_store(cr + j, alpha, beta, nt_finish(s, ar, br, k4, k));
      }
    }
  }
}

/* c[j] <- c[j] + s*b[j] for j in [0, n), skipped when s = 0. */
static inline void axpy1(double *c, const double *b, double s, intnat n)
{
  if (s == 0.0) return;
  const v4d sv = splat4(s);
  intnat j = 0;
  for (; j + 3 < n; j += 4) store4(c + j, add4(load4(c + j), mul4(sv, load4(b + j))));
  for (; j < n; j++) c[j] = c[j] + s * b[j];
}

/* c[j] <- (((c[j] + s0*b0[j]) + s1*b1[j]) + s2*b2[j]) + s3*b3[j]: the four
   one-term rows above, fused into one pass over c. */
static inline void axpy4(double *c, const double *b0, const double *b1, const double *b2,
                         const double *b3, double s0, double s1, double s2, double s3,
                         intnat n)
{
  const v4d v0 = splat4(s0), v1 = splat4(s1), v2 = splat4(s2), v3 = splat4(s3);
  intnat j = 0;
  for (; j + 3 < n; j += 4) {
    v4d x = load4(c + j);
    x = add4(x, mul4(v0, load4(b0 + j)));
    x = add4(x, mul4(v1, load4(b1 + j)));
    x = add4(x, mul4(v2, load4(b2 + j)));
    x = add4(x, mul4(v3, load4(b3 + j)));
    store4(c + j, x);
  }
  for (; j < n; j++) {
    double x = c[j];
    x = x + s0 * b0[j];
    x = x + s1 * b1[j];
    x = x + s2 * b2[j];
    c[j] = x + s3 * b3[j];
  }
}

/* Output row i (i in [i0, i1)) is C at i*ldc + coff, n wide; term p has
   coefficient alpha * A[i*ai + p*ap] and B row p*ldb + boff.  The row
   starts as 0 (beta = 0), itself (beta = 1) or beta*c; then each term adds
   s_p * B row p, in p order, skipping s_p = 0.  Four consecutive terms
   whose coefficients are all non-zero run as one pass. */
static void axpy_rows(double alpha, double beta, intnat i0, intnat i1, intnat n, intnat k,
                      intnat ai, intnat ap, intnat ldb, intnat boff, intnat ldc, intnat coff,
                      const double *a, const double *b, double *c)
{
  for (intnat i = i0; i < i1; i++) {
    double *cr = c + i * ldc + coff;
    if (beta == 0.0)
      for (intnat j = 0; j < n; j++) cr[j] = 0.0;
    else if (beta != 1.0)
      for (intnat j = 0; j < n; j++) cr[j] = beta * cr[j];
    const double *ar = a + i * ai;
    intnat p = 0;
    for (; p + 3 < k; p += 4) {
      const double s0 = alpha * ar[p * ap], s1 = alpha * ar[(p + 1) * ap];
      const double s2 = alpha * ar[(p + 2) * ap], s3 = alpha * ar[(p + 3) * ap];
      const double *b0 = b + p * ldb + boff, *b1 = b0 + ldb, *b2 = b1 + ldb, *b3 = b2 + ldb;
      if (s0 != 0.0 && s1 != 0.0 && s2 != 0.0 && s3 != 0.0)
        axpy4(cr, b0, b1, b2, b3, s0, s1, s2, s3, n);
      else {
        axpy1(cr, b0, s0, n);
        axpy1(cr, b1, s1, n);
        axpy1(cr, b2, s2, n);
        axpy1(cr, b3, s3, n);
      }
    }
    for (; p < k; p++) axpy1(cr, b + p * ldb + boff, alpha * ar[p * ap], n);
  }
}

#define DATA(v) ((double *)Caml_ba_data_val(v))

value liger_gemm_nt(double alpha, double beta, intnat i0, intnat i1, intnat n, intnat k,
                    intnat ld, intnat boff, value a, value b, value c)
{
  nt_rows(alpha, beta, i0, i1, n, k, ld, boff, DATA(a), DATA(b), DATA(c));
  return Val_unit;
}

value liger_gemm_nt_byte(value *argv, int argn)
{
  (void)argn;
  return liger_gemm_nt(Double_val(argv[0]), Double_val(argv[1]), Long_val(argv[2]),
                       Long_val(argv[3]), Long_val(argv[4]), Long_val(argv[5]),
                       Long_val(argv[6]), Long_val(argv[7]), argv[8], argv[9], argv[10]);
}

value liger_gemm_axpy(double alpha, double beta, intnat i0, intnat i1, intnat n, intnat k,
                      intnat ai, intnat ap, intnat ldb, intnat boff, intnat ldc, intnat coff,
                      value a, value b, value c)
{
  axpy_rows(alpha, beta, i0, i1, n, k, ai, ap, ldb, boff, ldc, coff, DATA(a), DATA(b),
            DATA(c));
  return Val_unit;
}

value liger_gemm_axpy_byte(value *argv, int argn)
{
  (void)argn;
  return liger_gemm_axpy(Double_val(argv[0]), Double_val(argv[1]), Long_val(argv[2]),
                         Long_val(argv[3]), Long_val(argv[4]), Long_val(argv[5]),
                         Long_val(argv[6]), Long_val(argv[7]), Long_val(argv[8]),
                         Long_val(argv[9]), Long_val(argv[10]), Long_val(argv[11]),
                         argv[12], argv[13], argv[14]);
}
