/* One collapsed Gibbs sweep of the Latent Truth Model (Equation 2).
 *
 * The C twin of repro.core.gibbs_vec.PythonWalk.sweep: same table lookups,
 * same left-to-right accumulation, same strict "<" test, facts in plain
 * order 0..F-1.  Build without floating-point contraction or fast-math
 * (-ffp-contract=off, no -ffast-math / -Ofast) so every add and subtract is
 * a plain IEEE-754 double operation and chains stay bit-identical.
 *
 * index is the (2, 4, K) block of KernelTables.code_index (K = 2S codes,
 * code = 2 * source + obs): for truth value t, rows num_base, count_idx,
 * den_base, total_idx.  A claim's term depends only on (current truth,
 * code) and its source's counts, so w caches it: w[t * K + k] holds the
 * term PythonWalk evaluates per claim, filled at the start of the sweep and
 * refreshed for a source whenever a flip moves that source's counts.
 * counts, totals, truth and w are updated in place.  Returns the number of
 * facts that flipped.
 */
#include <stdint.h>

/* The Equation-2 term of a claim of code k under current truth t; 0.0 when
 * no claim of code k sits in bucket t (that entry is never read). */
static double term(int64_t t, int64_t k, int64_t num_codes, const int64_t *index,
                   const double *log_num, const double *log_den,
                   const int64_t *counts, const int64_t *totals)
{
    const int64_t *c = index + t * 4 * num_codes, *o = index + (1 - t) * 4 * num_codes;
    const int64_t n = counts[c[num_codes + k]];
    if (n == 0)
        return 0.0;
    return (log_num[c[k] + n - 1] - log_den[c[2 * num_codes + k] + totals[c[3 * num_codes + k]] - 1])
         - (log_num[o[k] + counts[o[num_codes + k]]] - log_den[o[2 * num_codes + k] + totals[o[3 * num_codes + k]]]);
}

int64_t ltm_gibbs_sweep(
    int64_t num_facts, int64_t num_codes, const int64_t *fact_ptr,
    const int64_t *code, const int64_t *index, const double *log_num, const double *log_den,
    int64_t *counts, int64_t *totals, int64_t *truth, double *w,
    const double *uniforms, const double *thresholds,
    double prior_true, double dlb0, double dlb1)
{
    for (int64_t k = 0; k < 2 * num_codes; k++)
        w[k] = term(k / num_codes, k % num_codes, num_codes, index, log_num, log_den, counts, totals);
    int64_t flips = 0;
    for (int64_t f = 0; f < num_facts; f++) {
        const int64_t lo = fact_ptr[f], hi = fact_ptr[f + 1];
        const int64_t cur = truth[f];
        if (lo == hi) {
            /* A fact with no claims: sample from the truth prior alone. */
            const int64_t t = uniforms[f] < prior_true ? 1 : 0;
            if (t != cur) {
                truth[f] = t;
                flips++;
            }
            continue;
        }
        const double *wc = w + cur * num_codes;
        double acc = 0.0;
        for (int64_t i = lo; i < hi; i++)
            acc += wc[code[i]];
        if (acc + (cur ? dlb1 : dlb0) < thresholds[f]) {
            const int64_t *ci_c = index + (cur * 4 + 1) * num_codes, *ti_c = index + (cur * 4 + 3) * num_codes;
            const int64_t *ci_o = index + ((1 - cur) * 4 + 1) * num_codes, *ti_o = index + ((1 - cur) * 4 + 3) * num_codes;
            for (int64_t i = lo; i < hi; i++) {
                const int64_t k = code[i];
                counts[ci_c[k]]--;
                counts[ci_o[k]]++;
                totals[ti_c[k]]--;
                totals[ti_o[k]]++;
            }
            /* Refresh the 4 cached terms of every source the fact touched. */
            for (int64_t i = lo; i < hi; i++) {
                const int64_t k0 = code[i] & ~(int64_t)1;
                for (int64_t t = 0; t < 2; t++)
                    for (int64_t k = k0; k < k0 + 2; k++)
                        w[t * num_codes + k] = term(t, k, num_codes, index, log_num, log_den, counts, totals);
            }
            truth[f] = 1 - cur;
            flips++;
        }
    }
    return flips;
}
