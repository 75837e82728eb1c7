/* One collapsed Gibbs sweep of the Latent Truth Model (Equation 2).
 *
 * The C twin of repro.core.gibbs_vec.PythonWalk.sweep: same table lookups,
 * same left-to-right accumulation, same strict "<" test, facts in plain
 * order 0..F-1.  Build without floating-point contraction or fast-math
 * (-ffp-contract=off, no -ffast-math / -Ofast) so every add and subtract is
 * a plain IEEE-754 double operation and chains stay bit-identical.
 *
 * index is the (2, 4, C) block of KernelTables.claim_index: for truth value
 * t, rows num_base, count_idx, den_base, total_idx.  counts, totals and
 * truth are updated in place.  Returns the number of facts that flipped.
 */
#include <stdint.h>

int64_t ltm_gibbs_sweep(
    int64_t num_facts, int64_t num_claims, const int64_t *fact_ptr,
    const int64_t *index, const double *log_num, const double *log_den,
    int64_t *counts, int64_t *totals, int64_t *truth,
    const double *uniforms, const double *thresholds,
    double prior_true, double dlb0, double dlb1)
{
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
        const int64_t *c = index + cur * 4 * num_claims;
        const int64_t *o = index + (1 - cur) * 4 * num_claims;
        const int64_t *nb_c = c, *ci_c = c + num_claims, *db_c = c + 2 * num_claims, *ti_c = c + 3 * num_claims;
        const int64_t *nb_o = o, *ci_o = o + num_claims, *db_o = o + 2 * num_claims, *ti_o = o + 3 * num_claims;
        double acc = 0.0;
        for (int64_t i = lo; i < hi; i++) {
            acc += (log_num[nb_c[i] + counts[ci_c[i]] - 1] - log_den[db_c[i] + totals[ti_c[i]] - 1])
                 - (log_num[nb_o[i] + counts[ci_o[i]]] - log_den[db_o[i] + totals[ti_o[i]]]);
        }
        if (acc + (cur ? dlb1 : dlb0) < thresholds[f]) {
            for (int64_t i = lo; i < hi; i++) {
                counts[ci_c[i]]--;
                counts[ci_o[i]]++;
                totals[ti_c[i]]--;
                totals[ti_o[i]]++;
            }
            truth[f] = 1 - cur;
            flips++;
        }
    }
    return flips;
}
