/* Fused per-tile compositing kernels of the ``native`` kernel backend.
 *
 * Plain C99 over libm: no Python headers, no threads, no static state (the
 * caller releases the GIL, so several calls may be inside a kernel at once).
 * Built by repro/kernels/native_backend.py with -ffp-contract=off and without
 * -ffast-math / -march, so every operation rounds as an IEEE double in program
 * order and two runs over the same operands are bit-identical.
 *
 * Operands are the CSR TileBins and the padded _AugArrays of
 * repro/gaussians/rasterizer.py: tile i has linear id tile_ids[i] and the
 * near-to-far rows order[offsets[i] .. offsets[i+1]) into the per-Gaussian
 * arrays.  Canvases and the upstream gradient are tile-major, (tiles, P[, 3])
 * with P = ts * ts row-major pixels per tile.
 *
 * Per cell the semantics are those of rasterizer.tile_alpha_weights:
 *
 *     alpha_raw = opacity * exp(min(power, 0))
 *     passes    = alpha_raw >= alpha_threshold
 *     alpha     = min(alpha_raw, max_alpha), gradient gated by alpha_raw < max_alpha
 *     active    = T_before > transmittance_min   (T keeps multiplying after)
 *
 * The loops are entry-outer: per (tile, splat) entry only the pixels of the
 * splat's thresholded footprint rectangle are visited, and exp() is called only
 * where the cell can still pass the threshold.  Both cuts are conservative (the
 * exact test follows), see footprint().
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* rasterizer._FOOTPRINT_MARGIN: the inflation that keeps rounding from ever
 * dropping a cell the exact threshold test would pass. */
#define FOOTPRINT_MARGIN 1e-6

typedef struct {
    double mx, my, a, b, c, opac;
    /* Inclusive pixel rectangle (image coordinates) and the exponent below
     * which a cell cannot reach the threshold. */
    int64_t x_lo, x_hi, y_lo, y_hi;
    double cut;
} entry_t;

/* Load one entry and clip the tile's pixel range [x0, x1] x [y0, y1] to the
 * bounding box of {alpha_raw >= tau}: the ellipse q <= 2 ln(opacity / tau),
 * level and half-extents each grown by the margin, exactly as
 * rasterizer._compute_tile_rects bins it.  tau <= 0 keeps the whole range and
 * never cuts; a NaN or non-finite extent leaves its axis unclipped (fmax/fmin
 * drop a NaN operand) and a NaN cut compares false, so neither ever skips. */
static entry_t footprint(
    int64_t row, const double *mx, const double *my, const double *ca,
    const double *cb, const double *cc, const double *opac, double tau,
    int64_t x0, int64_t x1, int64_t y0, int64_t y1)
{
    entry_t e;
    e.mx = mx[row];
    e.my = my[row];
    e.a = ca[row];
    e.b = cb[row];
    e.c = cc[row];
    e.opac = opac[row];
    e.x_lo = x0;
    e.x_hi = x1;
    e.y_lo = y0;
    e.y_hi = y1;
    e.cut = -INFINITY;
    if (tau > 0.0) {
        double level = 2.0 * log(e.opac / tau);
        level += FOOTPRINT_MARGIN * (1.0 + level);
        double det = e.a * e.c - e.b * e.b;
        double half_x = sqrt(level * e.c / det);
        double half_y = sqrt(level * e.a / det);
        half_x += FOOTPRINT_MARGIN * (1.0 + half_x);
        half_y += FOOTPRINT_MARGIN * (1.0 + half_y);
        /* Pixel i has its centre at i + 0.5. */
        e.x_lo = (int64_t)fmax((double)x0, ceil(e.mx - 0.5 - half_x));
        e.x_hi = (int64_t)fmin((double)x1, floor(e.mx - 0.5 + half_x));
        e.y_lo = (int64_t)fmax((double)y0, ceil(e.my - 0.5 - half_y));
        e.y_hi = (int64_t)fmin((double)y1, floor(e.my - 0.5 + half_y));
        e.cut = -0.5 * level;
    }
    return e;
}

/* min(power, 0) of one cell; ``cyy = c dy^2`` and ``bdy = b dy`` are per row.
 * A pixel centre on the mean gets exactly 0. */
static inline double exponent(double a, double cyy, double bdy, double dx)
{
    const double power = -0.5 * (a * dx * dx + cyy) - bdy * dx;
    return power > 0.0 ? 0.0 : power;
}

static inline int64_t min_i64(int64_t a, int64_t b) { return a < b ? a : b; }

/* Composite every non-empty tile into the tile-major canvases. */
int raster_forward(
    int64_t num_tiles, const int64_t *offsets, const int64_t *order,
    const int64_t *tile_ids, int64_t tiles_x, int64_t ts, int64_t width,
    int64_t height, const double *mx, const double *my, const double *ca,
    const double *cb, const double *cc, const double *opac,
    const double *colors, const double *bg, double tau, double t_min,
    double max_alpha, double *canvas_rgb, double *canvas_t)
{
    const int64_t pixels = ts * ts;
    for (int64_t i = 0; i < num_tiles; i++) {
        const int64_t t_id = tile_ids[i];
        const int64_t x0 = (t_id % tiles_x) * ts, y0 = (t_id / tiles_x) * ts;
        const int64_t x1 = min_i64(x0 + ts, width) - 1;
        const int64_t y1 = min_i64(y0 + ts, height) - 1;
        double *T = canvas_t + t_id * pixels;
        double *rgb = canvas_rgb + t_id * pixels * 3;
        for (int64_t p = 0; p < pixels; p++) {
            T[p] = 1.0;
            rgb[3 * p] = rgb[3 * p + 1] = rgb[3 * p + 2] = 0.0;
        }
        for (int64_t k = offsets[i]; k < offsets[i + 1]; k++) {
            const int64_t row = order[k];
            const entry_t e =
                footprint(row, mx, my, ca, cb, cc, opac, tau, x0, x1, y0, y1);
            const double c0 = colors[3 * row], c1 = colors[3 * row + 1],
                         c2 = colors[3 * row + 2];
            for (int64_t y = e.y_lo; y <= e.y_hi; y++) {
                const double dy = ((double)y + 0.5) - e.my;
                const double cyy = e.c * dy * dy, bdy = e.b * dy;
                const int64_t base = (y - y0) * ts - x0;
                for (int64_t x = e.x_lo; x <= e.x_hi; x++) {
                    const double power =
                        exponent(e.a, cyy, bdy, ((double)x + 0.5) - e.mx);
                    if (power < e.cut)
                        continue;
                    const double alpha_raw = e.opac * exp(power);
                    if (!(alpha_raw >= tau))
                        continue;
                    const double alpha =
                        alpha_raw < max_alpha ? alpha_raw : max_alpha;
                    const int64_t p = base + x;
                    const double t = T[p];
                    if (t > t_min) {
                        const double w = alpha * t;
                        rgb[3 * p] += w * c0;
                        rgb[3 * p + 1] += w * c1;
                        rgb[3 * p + 2] += w * c2;
                    }
                    T[p] = t * (1.0 - alpha);
                }
            }
        }
        for (int64_t p = 0; p < pixels; p++) {
            rgb[3 * p] += T[p] * bg[0];
            rgb[3 * p + 1] += T[p] * bg[1];
            rgb[3 * p + 2] += T[p] * bg[2];
        }
    }
    return 0;
}

/* Compositing gradient, recomputing the blend state tile by tile.
 *
 * Sweep 1 replays the forward recurrence and records (exp value, T_before,
 * pixel) for every cell that passed the threshold — no other cell has a
 * gradient — while summing each pixel's blended contribution.  Sweep 2 walks
 * the records in the same order with a per-pixel running sum, so for a cell
 * under the cap (alpha == alpha_raw; at the cap nothing flows to the splat's
 * geometry or opacity)
 *
 *     suffix    = (total - csum) + T_final (g . bg)
 *     dL/dalpha = active T_before (c . g) - suffix / (1 - alpha)
 *
 * and an entry's sums stay in registers until they are added, in CSR order,
 * to its Gaussian's rows of d_colors (M, 3), d_opac (M), d_means (M, 2) and
 * d_conics (M, 2, 2).  Returns 1 when the scratch cannot be allocated. */
int raster_backward(
    int64_t num_tiles, const int64_t *offsets, const int64_t *order,
    const int64_t *tile_ids, int64_t tiles_x, int64_t ts, int64_t width,
    int64_t height, const double *mx, const double *my, const double *ca,
    const double *cb, const double *cc, const double *opac,
    const double *colors, const double *g_tiles, const double *bg, double tau,
    double t_min, double max_alpha, double *d_colors, double *d_opac,
    double *d_means, double *d_conics)
{
    const int64_t pixels = ts * ts;
    int64_t deepest = 0;
    for (int64_t i = 0; i < num_tiles; i++)
        if (offsets[i + 1] - offsets[i] > deepest)
            deepest = offsets[i + 1] - offsets[i];
    if (deepest == 0)
        return 0;

    /* One block: six per-pixel arrays, the records of the deepest tile (at
     * most one per cell: 20 bytes) and the end of each entry's records. */
    const size_t px = (size_t)pixels, cells = (size_t)deepest * px;
    if (cells / px != (size_t)deepest || cells > SIZE_MAX / 128)
        return 1;
    char *scratch = malloc(
        (6 * px + 2 * cells) * sizeof(double) +
        (size_t)deepest * sizeof(int64_t) + cells * sizeof(int32_t));
    if (scratch == NULL)
        return 1;
    double *T = (double *)scratch, *total = T + px, *csum = total + px;
    double *bg_term = csum + px, *off_x = bg_term + px, *off_y = off_x + px;
    double *rec_w = off_y + px, *rec_t = rec_w + cells;
    int64_t *rec_end = (int64_t *)(rec_t + cells);
    int32_t *rec_p = (int32_t *)(rec_end + deepest);
    /* Pixel-centre offsets from the tile corner: exact, so corner + offset is
     * bit for bit the ``x + 0.5`` of sweep 1. */
    for (int64_t p = 0; p < pixels; p++) {
        off_x[p] = (double)(p % ts) + 0.5;
        off_y[p] = (double)(p / ts) + 0.5;
    }

    for (int64_t i = 0; i < num_tiles; i++) {
        const int64_t t_id = tile_ids[i], start = offsets[i];
        const int64_t n = offsets[i + 1] - start;
        const int64_t x0 = (t_id % tiles_x) * ts, y0 = (t_id / tiles_x) * ts;
        const int64_t x1 = min_i64(x0 + ts, width) - 1;
        const int64_t y1 = min_i64(y0 + ts, height) - 1;
        const double *g = g_tiles + t_id * pixels * 3;
        for (int64_t p = 0; p < pixels; p++) {
            T[p] = 1.0;
            total[p] = 0.0;
        }

        int64_t nrec = 0;
        for (int64_t k = 0; k < n; k++) {
            const int64_t row = order[start + k];
            const entry_t e =
                footprint(row, mx, my, ca, cb, cc, opac, tau, x0, x1, y0, y1);
            const double c0 = colors[3 * row], c1 = colors[3 * row + 1],
                         c2 = colors[3 * row + 2];
            for (int64_t y = e.y_lo; y <= e.y_hi; y++) {
                const double dy = ((double)y + 0.5) - e.my;
                const double cyy = e.c * dy * dy, bdy = e.b * dy;
                const int64_t base = (y - y0) * ts - x0;
                for (int64_t x = e.x_lo; x <= e.x_hi; x++) {
                    const double power =
                        exponent(e.a, cyy, bdy, ((double)x + 0.5) - e.mx);
                    if (power < e.cut)
                        continue;
                    const double w = exp(power);
                    const double alpha_raw = e.opac * w;
                    if (!(alpha_raw >= tau))
                        continue;
                    const double alpha =
                        alpha_raw < max_alpha ? alpha_raw : max_alpha;
                    const int64_t p = base + x;
                    const double t = T[p];
                    rec_w[nrec] = w;
                    rec_t[nrec] = t;
                    rec_p[nrec] = (int32_t)p;
                    nrec++;
                    if (t > t_min)
                        total[p] += (alpha * t) * (c0 * g[3 * p] +
                                                   c1 * g[3 * p + 1] +
                                                   c2 * g[3 * p + 2]);
                    T[p] = t * (1.0 - alpha);
                }
            }
            rec_end[k] = nrec;
        }
        for (int64_t p = 0; p < pixels; p++) {
            bg_term[p] = T[p] * (g[3 * p] * bg[0] + g[3 * p + 1] * bg[1] +
                                 g[3 * p + 2] * bg[2]);
            csum[p] = 0.0;
        }

        int64_t r = 0;
        for (int64_t k = 0; k < n; k++) {
            const int64_t row = order[start + k];
            const double a = ca[row], b = cb[row], c = cc[row];
            const double o = opac[row], mean_x = mx[row], mean_y = my[row];
            const double c0 = colors[3 * row], c1 = colors[3 * row + 1],
                         c2 = colors[3 * row + 2];
            double dc0 = 0.0, dc1 = 0.0, dc2 = 0.0, d_o = 0.0;
            double dmx = 0.0, dmy = 0.0, daa = 0.0, dab = 0.0, dcc = 0.0;
            for (; r < rec_end[k]; r++) {
                const int64_t p = rec_p[r];
                const double w = rec_w[r], t = rec_t[r];
                const double g0 = g[3 * p], g1 = g[3 * p + 1],
                             g2 = g[3 * p + 2];
                const double alpha_raw = o * w;
                const double cg = c0 * g0 + c1 * g1 + c2 * g2;
                const int active = t > t_min;
                if (active) {
                    const double blend =
                        (alpha_raw < max_alpha ? alpha_raw : max_alpha) * t;
                    csum[p] += blend * cg;
                    dc0 += blend * g0;
                    dc1 += blend * g1;
                    dc2 += blend * g2;
                }
                if (alpha_raw < max_alpha) {
                    const double suffix = (total[p] - csum[p]) + bg_term[p];
                    double d_alpha = -(suffix / (1.0 - alpha_raw));
                    if (active)
                        d_alpha += t * cg;
                    const double d_power = d_alpha * alpha_raw;
                    const double dx = ((double)x0 + off_x[p]) - mean_x;
                    const double dy = ((double)y0 + off_y[p]) - mean_y;
                    d_o += w * d_alpha;
                    dmx += d_power * (a * dx + b * dy);
                    dmy += d_power * (b * dx + c * dy);
                    daa += -0.5 * d_power * dx * dx;
                    dab += -0.5 * d_power * dx * dy;
                    dcc += -0.5 * d_power * dy * dy;
                }
            }
            d_colors[3 * row] += dc0;
            d_colors[3 * row + 1] += dc1;
            d_colors[3 * row + 2] += dc2;
            d_opac[row] += d_o;
            d_means[2 * row] += dmx;
            d_means[2 * row + 1] += dmy;
            d_conics[4 * row] += daa;
            d_conics[4 * row + 1] += dab;
            d_conics[4 * row + 2] += dab;
            d_conics[4 * row + 3] += dcc;
        }
    }
    free(scratch);
    return 0;
}
