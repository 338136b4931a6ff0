/* The ``native`` kernel backend: fused per-tile compositing kernels (this
 * half of the file) and the whole-view ops built around them (the second).
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
#include <string.h>

/* rasterizer._FOOTPRINT_MARGIN: the inflation that keeps rounding from ever
 * dropping a cell the exact threshold test would pass. */
#define FOOTPRINT_MARGIN 1e-6

/* The blend state a forward pass may leave for its backward pass: per cell
 * that passed the threshold its exp value, T_before and tile-local pixel
 * (room for ``cap`` cells); the cells of CSR entry k are [end[k], end[k+1]);
 * and tile i's final T at t_final[i * ts * ts].  Only the view ops keep it. */
typedef struct {
    double *t_final, *w, *t;
    int32_t *pixel;
    int64_t *end, cap;
} records_t;

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

/* Composite every non-empty tile into the tile-major canvases, keeping the
 * blend state in ``rec`` unless it is NULL.  Returns 3, having written no
 * record past ``rec->cap``, when more cells pass than that. */
static int composite(
    int64_t num_tiles, const int64_t *offsets, const int64_t *order,
    const int64_t *tile_ids, int64_t tiles_x, int64_t ts, int64_t width,
    int64_t height, const double *mx, const double *my, const double *ca,
    const double *cb, const double *cc, const double *opac,
    const double *colors, const double *bg, double tau, double t_min,
    double max_alpha, double *canvas_rgb, double *canvas_t,
    const records_t *rec)
{
    const int64_t pixels = ts * ts;
    int64_t nrec = 0;
    if (rec != NULL)
        rec->end[0] = 0;
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
                    const double ex = exp(power);
                    const double alpha_raw = e.opac * ex;
                    if (!(alpha_raw >= tau))
                        continue;
                    const double alpha =
                        alpha_raw < max_alpha ? alpha_raw : max_alpha;
                    const int64_t p = base + x;
                    const double t = T[p];
                    if (rec != NULL) {
                        if (nrec == rec->cap)
                            return 3;
                        rec->w[nrec] = ex;
                        rec->t[nrec] = t;
                        rec->pixel[nrec++] = (int32_t)p;
                    }
                    if (t > t_min) {
                        const double w = alpha * t;
                        rgb[3 * p] += w * c0;
                        rgb[3 * p + 1] += w * c1;
                        rgb[3 * p + 2] += w * c2;
                    }
                    T[p] = t * (1.0 - alpha);
                }
            }
            if (rec != NULL)
                rec->end[k + 1] = nrec;
        }
        if (rec != NULL)
            memcpy(rec->t_final + i * pixels, T, (size_t)pixels * sizeof(double));
        for (int64_t p = 0; p < pixels; p++) {
            rgb[3 * p] += T[p] * bg[0];
            rgb[3 * p + 1] += T[p] * bg[1];
            rgb[3 * p + 2] += T[p] * bg[2];
        }
    }
    return 0;
}

int raster_forward(
    int64_t num_tiles, const int64_t *offsets, const int64_t *order,
    const int64_t *tile_ids, int64_t tiles_x, int64_t ts, int64_t width,
    int64_t height, const double *mx, const double *my, const double *ca,
    const double *cb, const double *cc, const double *opac,
    const double *colors, const double *bg, double tau, double t_min,
    double max_alpha, double *canvas_rgb, double *canvas_t)
{
    return composite(
        num_tiles, offsets, order, tile_ids, tiles_x, ts, width, height, mx,
        my, ca, cb, cc, opac, colors, bg, tau, t_min, max_alpha, canvas_rgb,
        canvas_t, NULL);
}

/* Compositing gradient, tile by tile.
 *
 * Sweep 1 replays the forward recurrence and records (exp value, T_before,
 * pixel) for every cell that passed the threshold — no other cell has a
 * gradient — while summing each pixel's blended contribution; given the
 * forward's records ``rec`` it walks those instead, summing the same terms in
 * the same order, and reads the final T.  Sweep 2 walks the records in the
 * same order with a per-pixel running sum, so for a cell under the cap
 * (alpha == alpha_raw; at the cap nothing flows to the splat's geometry or
 * opacity)
 *
 *     suffix    = (total - csum) + T_final (g . bg)
 *     dL/dalpha = active T_before (c . g) - suffix / (1 - alpha)
 *
 * and an entry's sums stay in registers until they are added, in CSR order,
 * to its Gaussian's rows of d_colors (M, 3), d_opac (M), d_means (M, 2) and
 * d_conics (M, 2, 2).  Returns 1 when the scratch cannot be allocated. */
static int composite_backward(
    int64_t num_tiles, const int64_t *offsets, const int64_t *order,
    const int64_t *tile_ids, int64_t tiles_x, int64_t ts, int64_t width,
    int64_t height, const double *mx, const double *my, const double *ca,
    const double *cb, const double *cc, const double *opac,
    const double *colors, const double *g_tiles, const double *bg, double tau,
    double t_min, double max_alpha, double *d_colors, double *d_opac,
    double *d_means, double *d_conics, const records_t *rec)
{
    const int64_t pixels = ts * ts;
    int64_t deepest = 0;
    for (int64_t i = 0; i < num_tiles; i++)
        if (offsets[i + 1] - offsets[i] > deepest)
            deepest = offsets[i + 1] - offsets[i];
    if (deepest == 0)
        return 0;

    /* One block: six per-pixel arrays and, without ``rec``, the records of
     * the deepest tile (at most one per cell: 20 bytes) and their ends. */
    const size_t px = (size_t)pixels, depth = rec != NULL ? 0 : (size_t)deepest;
    const size_t cells = depth * px;
    if (cells / px != depth || cells > SIZE_MAX / 128)
        return 1;
    char *scratch = malloc(
        (6 * px + 2 * cells) * sizeof(double) +
        (depth + 1) * sizeof(int64_t) + cells * sizeof(int32_t));
    if (scratch == NULL)
        return 1;
    double *T = (double *)scratch, *total = T + px, *csum = total + px;
    double *bg_term = csum + px, *off_x = bg_term + px, *off_y = off_x + px;
    records_t own;
    own.w = off_y + px;
    own.t = own.w + cells;
    own.end = (int64_t *)(own.t + cells);
    own.pixel = (int32_t *)(own.end + depth + 1);
    own.end[0] = 0;
    const double *rec_w = rec != NULL ? rec->w : own.w;
    const double *rec_t = rec != NULL ? rec->t : own.t;
    const int32_t *rec_p = rec != NULL ? rec->pixel : own.pixel;
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
        const int64_t *end = rec != NULL ? rec->end + start : own.end;
        const double *t_final = rec != NULL ? rec->t_final + i * pixels : T;
        for (int64_t p = 0; p < pixels; p++) {
            T[p] = 1.0;
            total[p] = 0.0;
        }

        for (int64_t k = 0; rec != NULL && k < n; k++) {
            const int64_t row = order[start + k];
            const double o = opac[row], c0 = colors[3 * row],
                         c1 = colors[3 * row + 1], c2 = colors[3 * row + 2];
            for (int64_t r = end[k]; r < end[k + 1]; r++) {
                const int64_t p = rec_p[r];
                const double alpha_raw = o * rec_w[r], t = rec_t[r];
                const double alpha =
                    alpha_raw < max_alpha ? alpha_raw : max_alpha;
                if (t > t_min)
                    total[p] += (alpha * t) * (c0 * g[3 * p] +
                                               c1 * g[3 * p + 1] +
                                               c2 * g[3 * p + 2]);
            }
        }
        int64_t nrec = 0;
        for (int64_t k = 0; rec == NULL && k < n; k++) {
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
                    own.w[nrec] = w;
                    own.t[nrec] = t;
                    own.pixel[nrec++] = (int32_t)p;
                    if (t > t_min)
                        total[p] += (alpha * t) * (c0 * g[3 * p] +
                                                   c1 * g[3 * p + 1] +
                                                   c2 * g[3 * p + 2]);
                    T[p] = t * (1.0 - alpha);
                }
            }
            own.end[k + 1] = nrec;
        }
        for (int64_t p = 0; p < pixels; p++) {
            bg_term[p] = t_final[p] * (g[3 * p] * bg[0] + g[3 * p + 1] * bg[1] +
                                       g[3 * p + 2] * bg[2]);
            csum[p] = 0.0;
        }

        int64_t r = end[0];
        for (int64_t k = 0; k < n; k++) {
            const int64_t row = order[start + k];
            const double a = ca[row], b = cb[row], c = cc[row];
            const double o = opac[row], mean_x = mx[row], mean_y = my[row];
            const double c0 = colors[3 * row], c1 = colors[3 * row + 1],
                         c2 = colors[3 * row + 2];
            double dc0 = 0.0, dc1 = 0.0, dc2 = 0.0, d_o = 0.0;
            double dmx = 0.0, dmy = 0.0, daa = 0.0, dab = 0.0, dcc = 0.0;
            for (; r < end[k + 1]; r++) {
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

int raster_backward(
    int64_t num_tiles, const int64_t *offsets, const int64_t *order,
    const int64_t *tile_ids, int64_t tiles_x, int64_t ts, int64_t width,
    int64_t height, const double *mx, const double *my, const double *ca,
    const double *cb, const double *cc, const double *opac,
    const double *colors, const double *g_tiles, const double *bg, double tau,
    double t_min, double max_alpha, double *d_colors, double *d_opac,
    double *d_means, double *d_conics)
{
    return composite_backward(
        num_tiles, offsets, order, tile_ids, tiles_x, ts, width, height, mx,
        my, ca, cb, cc, opac, colors, g_tiles, bg, tau, t_min, max_alpha,
        d_colors, d_opac, d_means, d_conics, NULL);
}

/* ======================================================================
 * Whole-view ops: projection, binning and the gradient chain around the
 * two compositing kernels above, so that a render is two calls
 * (view_project, view_composite) and a backward pass one (view_backward).
 *
 * Every per-Gaussian field of a render lives in one float64 block laid out
 * field after field: field F of row r starts at block[F * cap + r * width],
 * cap being the rows the block was sized for.  view_project writes the
 * survivors, compacted, into a scratch block sized for every input row (plus
 * the raster kernels' separate-array operands, which nothing retains);
 * view_composite copies them into the block sized for the survivors that the
 * render keeps, and the Python side cuts ProjectedGaussians / GaussianShape
 * views out of it (native_backend._FIELDS repeats this table).
 *
 * The arithmetic is that of rasterizer.preprocess / build_tile_bins and
 * rasterizer_grad._chain_to_parameters, operation for operation where a
 * rounding decides something discrete (tile spans, radii, footprints); what
 * NumPy sums through BLAS (3x3 products, the SH contraction) is summed here
 * in index order, so values agree to a few ulps, not bit for bit.  The
 * 3-sigma frustum test is in_frustum() below: the one arbiter that the cull
 * (exact_cull) and the render (view_project) both call, row by row.
 * ====================================================================== */

enum {
    F_MEANS2D = 0, F_DEPTHS = 2, F_TCAM = 3, F_OFFSETS = 6, F_COVCAM = 9,
    F_COV2D = 18, F_CONICS = 22, F_COLORS = 26, F_OPAC = 29, F_RADII = 30,
    F_SCALES = 31, F_QNORM = 34, F_UQUAT = 35, F_ROT = 39, F_DIRS = 48,
    F_DNORM = 51, F_RETAINED = 52,
    /* Scratch only: means x / y and conic a / b / c as separate arrays. */
    F_MX = 52, F_MY = 53, F_CA = 54, F_CB = 55, F_CC = 56
};

/* The ``params`` vector of all three calls: world->camera rotation
 * (row-major), camera centre, intrinsics, near plane, then the settings. */
enum {
    P_ROT = 0, P_CENTER = 9, P_FX = 12, P_FY, P_CX, P_CY, P_ZNEAR, P_TAU,
    P_TMIN, P_MAX_ALPHA, P_BG
};

/* Integer workspace of a forward pass: a header (survivors, binned rows,
 * non-empty tiles, entries, and the summed area of the binned rows' clipped
 * footprint rectangles: the compute tiles partition each, so no more cells
 * than that can pass), the survivors' input rows, the binned rows near-to-far
 * and the merge sort's other half, one compute-tile rectangle per survivor,
 * per-tile counts (then fill cursors), the clamp mask. */
typedef struct {
    int64_t *head, *ids, *rows, *tmp, *rects, *per_tile;
    uint8_t *clamp;
} work_t;

static work_t work_of(int64_t *iw, int64_t n, int64_t tiles)
{
    work_t w;
    w.head = iw;
    w.ids = iw + 5;
    w.rows = w.ids + n;
    w.tmp = w.rows + n;
    w.rects = w.tmp + n;
    w.per_tile = w.rects + 4 * n;
    w.clamp = (uint8_t *)(w.per_tile + tiles);
    return w;
}

/* The blend records in a render's own blocks: ``rec_f`` is ``lead`` doubles
 * of final T, then ``cap`` exp values, then ``cap`` T_before. */
static records_t records_of(
    double *rec_f, int32_t *rec_p, int64_t *rec_end, int64_t cap, int64_t lead)
{
    records_t rec = {rec_f, NULL, NULL, rec_p, rec_end, cap};
    if (rec_f != NULL) {
        rec.w = rec_f + lead;
        rec.t = rec.w + cap;
    }
    return rec;
}

static inline int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

/* Where image pixel (x, y) sits in a tile-major (tiles, sub * sub) canvas. */
static inline int64_t tile_major(int64_t x, int64_t y, int64_t sub, int64_t tiles_x)
{
    return ((y / sub) * tiles_x + x / sub) * sub * sub + (y % sub) * sub + x % sub;
}

/* sh.eval_basis: the real SH basis up to ``degree`` at a unit direction. */
#define SH_C0 0.28209479177387814
#define SH_C1 0.4886025119029199
static const double SH_C2[5] = {
    1.0925484305920792, -1.0925484305920792, 0.31539156525252005,
    -1.0925484305920792, 0.5462742152960396};
static const double SH_C3[7] = {
    -0.5900435899266435, 2.890611442640554, -0.4570457994644658,
    0.3731763325901154, -0.4570457994644658, 1.445305721320277,
    -0.5900435899266435};

static void sh_basis(double x, double y, double z, int64_t degree, double *b)
{
    const double xx = x * x, yy = y * y, zz = z * z;
    b[0] = SH_C0;
    if (degree >= 1) {
        b[1] = -SH_C1 * y;
        b[2] = SH_C1 * z;
        b[3] = -SH_C1 * x;
    }
    if (degree >= 2) {
        b[4] = SH_C2[0] * x * y;
        b[5] = SH_C2[1] * y * z;
        b[6] = SH_C2[2] * (2 * zz - xx - yy);
        b[7] = SH_C2[3] * x * z;
        b[8] = SH_C2[4] * (xx - yy);
    }
    if (degree >= 3) {
        b[9] = SH_C3[0] * y * (3 * xx - yy);
        b[10] = SH_C3[1] * x * y * z;
        b[11] = SH_C3[2] * y * (4 * zz - xx - yy);
        b[12] = SH_C3[3] * z * (2 * zz - 3 * xx - 3 * yy);
        b[13] = SH_C3[4] * x * (4 * zz - xx - yy);
        b[14] = SH_C3[5] * z * (xx - yy);
        b[15] = SH_C3[6] * x * (xx - 3 * yy);
    }
}

/* sh.eval_basis_jacobian: d basis / d direction, (K, 3); row 0 is zero. */
static void sh_basis_jacobian(
    double x, double y, double z, int64_t degree, double (*j)[3])
{
    const double xx = x * x, yy = y * y, zz = z * z;
#define ROW(k, c, a0, a1, a2) \
    (j[k][0] = (c) * (a0), j[k][1] = (c) * (a1), j[k][2] = (c) * (a2))
    ROW(0, 0.0, 0.0, 0.0, 0.0);
    if (degree >= 1) {
        ROW(1, 1.0, 0.0, -SH_C1, 0.0);
        ROW(2, 1.0, 0.0, 0.0, SH_C1);
        ROW(3, 1.0, -SH_C1, 0.0, 0.0);
    }
    if (degree >= 2) {
        ROW(4, SH_C2[0], y, x, 0.0);
        ROW(5, SH_C2[1], 0.0, z, y);
        ROW(6, SH_C2[2], -2 * x, -2 * y, 4 * z);
        ROW(7, SH_C2[3], z, 0.0, x);
        ROW(8, SH_C2[4], 2 * x, -2 * y, 0.0);
    }
    if (degree >= 3) {
        ROW(9, SH_C3[0], 6 * x * y, 3 * xx - 3 * yy, 0.0);
        ROW(10, SH_C3[1], y * z, x * z, x * y);
        ROW(11, SH_C3[2], -2 * x * y, 4 * zz - xx - 3 * yy, 8 * y * z);
        ROW(12, SH_C3[3], -6 * x * z, -6 * y * z, 6 * zz - 3 * xx - 3 * yy);
        ROW(13, SH_C3[4], 4 * zz - 3 * xx - yy, -2 * x * y, 8 * x * z);
        ROW(14, SH_C3[5], 2 * x * z, -2 * y * z, xx - yy);
        ROW(15, SH_C3[6], 3 * xx - 3 * yy, -6 * x * y, 0.0);
    }
#undef ROW
}

/* (unit, norm) of a ``dim``-vector, the norm clamped at 1e-12 as
 * quaternion.unit_and_norm clamps it (a NaN norm stays NaN). */
static double unit_and_norm(const double *v, int dim, double *unit)
{
    double sum = 0.0;
    for (int k = 0; k < dim; k++)
        sum += v[k] * v[k];
    double norm = sqrt(sum);
    if (norm < 1e-12)
        norm = 1e-12;
    for (int k = 0; k < dim; k++)
        unit[k] = v[k] / norm;
    return norm;
}

/* quaternion.to_rotation_matrices: row-major R of a unit (w, x, y, z). */
static void rotation_matrix(const double *q, double *rot)
{
    const double qw = q[0], qx = q[1], qy = q[2], qz = q[3];
    rot[0] = 1 - 2 * (qy * qy + qz * qz);
    rot[1] = 2 * (qx * qy - qw * qz);
    rot[2] = 2 * (qx * qz + qw * qy);
    rot[3] = 2 * (qx * qy + qw * qz);
    rot[4] = 1 - 2 * (qx * qx + qz * qz);
    rot[5] = 2 * (qy * qz - qw * qx);
    rot[6] = 2 * (qx * qz - qw * qy);
    rot[7] = 2 * (qy * qz + qw * qx);
    rot[8] = 1 - 2 * (qx * qx + qy * qy);
}

/* frustum.ellipsoids_in_frustum for one row: does the 3-sigma ellipsoid of
 * the Gaussian at ``p`` (log-scales ``ls``, raw quaternion ``q``) reach inside
 * all six ``planes`` (6 x 4 rows (n, d), n . p + d >= 0 inside)?  Writes the
 * activated scales exp(ls) to ``s`` either way.
 *
 * The one arbiter of this backend: exact_cull and view_project both call it
 * on the same bits, so what the cull accepted the render accepts.  Signed
 * distances are summed in program order ((nx px + ny py) + nz pz) + d.  Accept
 * path: the reach 3 |diag(s) R^T n| is never negative, so a centre inside all
 * six planes is in whatever its shape — unless a scale or the quaternion is
 * not finite: then the reach may be NaN on some plane (0 * inf), the full test
 * rejects that, and so every plane is evaluated.  For a finite row the reach
 * is in [0, inf] and a plane the centre is inside of cannot fail. */
static int in_frustum(
    const double *planes, const double *p, const double *ls, const double *q,
    double *s)
{
    double dist[6];
    int centre_inside = 1;
    for (int k = 0; k < 6; k++) {
        const double *pl = planes + 4 * k;
        dist[k] = pl[0] * p[0] + pl[1] * p[1] + pl[2] * p[2] + pl[3];
        centre_inside &= dist[k] >= 0.0;
    }
    for (int k = 0; k < 3; k++)
        s[k] = exp(ls[k]);
    const int finite =
        isfinite(s[0] + s[1] + s[2] + (q[0] + q[1] + q[2] + q[3]));
    if (centre_inside && finite)
        return 1;

    double unit[4], rot[9];
    unit_and_norm(q, 4, unit);
    rotation_matrix(unit, rot);
    for (int k = 0; k < 6; k++) {
        if (finite && dist[k] >= 0.0)
            continue;
        const double *n = planes + 4 * k;
        double sum = 0.0;
        for (int i = 0; i < 3; i++) {
            /* v_i = (R^T n)_i s_i */
            const double v =
                (rot[i] * n[0] + rot[3 + i] * n[1] + rot[6 + i] * n[2]) * s[i];
            sum += v * v;
        }
        if (!(dist[k] + 3.0 * sqrt(sum) >= 0.0))
            return 0;
    }
    return 1;
}

/* frustum.exact_cull: the members of rows[0 .. count) whose ellipsoid reaches
 * inside all six planes, in order, as kept[1 .. 1 + kept[0]).  The three
 * arrays are walked in place: row r of each starts ``stride`` doubles after
 * row r - 1 (3 / 3 / 4 for separate arrays, 10 for the views of one packed
 * (n, 10) block), its values adjacent.  Returns 2 — before reading anything
 * of that row — when a row is outside [0, n). */
int exact_cull(
    int64_t n, const double *planes, const double *positions, int64_t p_stride,
    const double *log_scales, int64_t s_stride, const double *quats,
    int64_t q_stride, const int64_t *rows, int64_t count, int64_t *kept)
{
    int64_t m = 0;
    for (int64_t k = 0; k < count; k++) {
        const int64_t r = rows[k];
        double s[3];
        if (r < 0 || r >= n)
            return 2;
        if (in_frustum(planes, positions + r * p_stride,
                       log_scales + r * s_stride, quats + r * q_stride, s))
            kept[++m] = r;
    }
    kept[0] = m;
    return 0;
}

/* quaternion.backprop_unit: through unit = v / |v|. */
static void backprop_unit(
    const double *d_unit, const double *unit, double norm, int dim, double *out)
{
    double inner = 0.0;
    for (int k = 0; k < dim; k++)
        inner += d_unit[k] * unit[k];
    for (int k = 0; k < dim; k++)
        out[k] = (d_unit[k] - unit[k] * inner) / norm;
}

/* The four non-constant entries of covariance.perspective_jacobian:
 * J = [[j00, 0, j02], [0, j11, j12]]. */
typedef struct {
    double j00, j02, j11, j12, inv_z, inv_z2;
} jac_t;

static jac_t perspective_jacobian(const double *t, double fx, double fy)
{
    jac_t j;
    j.inv_z = 1.0 / t[2];
    j.inv_z2 = j.inv_z * j.inv_z;
    j.j00 = fx * j.inv_z;
    j.j02 = -fx * t[0] * j.inv_z2;
    j.j11 = fy * j.inv_z;
    j.j12 = -fy * t[1] * j.inv_z2;
    return j;
}

/* c = a b for row-major 3x3 matrices, each element summed in index order;
 * ``ta`` / ``tb`` read a / b transposed. */
static void mat3(const double *a, int ta, const double *b, int tb, double *c)
{
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 3; j++) {
            double sum = 0.0;
            for (int k = 0; k < 3; k++)
                sum += (ta ? a[3 * k + i] : a[3 * i + k]) *
                       (tb ? b[3 * j + k] : b[3 * k + j]);
            c[3 * i + j] = sum;
        }
}

/* NumPy's float floor_divide (npy_divmod), then its int64 cast and the clip
 * to [0, last] of rasterizer._tile_spans: a coordinate on a tile edge lands
 * in the tile NumPy puts it in for any tile size, 12 and 20 included. */
static int64_t tile_of(double coord, double ts, int64_t last)
{
    const double mod = fmod(coord, ts);
    double div = (coord - mod) / ts;
    if (mod < 0.0)
        div -= 1.0;
    double tile = floor(div);
    if (div - tile > 0.5)
        tile += 1.0;
    if (!(tile > 0.0))  /* also what the cast makes of a NaN or -inf */
        return 0;
    if (!isfinite(tile))
        return 0;
    return tile > (double)last ? last : (int64_t)tile;
}

/* Stable merge sort of ``rows`` by depth, ties by position; returns the
 * array (``rows`` or ``tmp``) that holds the result. */
static int64_t *sort_near_to_far(
    int64_t *rows, int64_t *tmp, int64_t n, const double *depths)
{
    for (int64_t run = 1; run < n; run *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * run) {
            const int64_t mid = min_i64(lo + run, n);
            const int64_t hi = min_i64(lo + 2 * run, n);
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                tmp[k++] = depths[rows[j]] < depths[rows[i]] ? rows[j++]
                                                             : rows[i++];
            while (i < mid)
                tmp[k++] = rows[i++];
            while (j < hi)
                tmp[k++] = rows[j++];
        }
        int64_t *swap = rows;
        rows = tmp;
        tmp = swap;
    }
    return rows;
}

/* rasterizer.preprocess for the rows in_frustum() lets through, then the
 * counting half of build_tile_bins over the survivors.  Writes the survivors'
 * fields, compacted, into ``f`` (57 * n doubles) and the workspace ``iw``
 * (see work_of; 5 + 7 n + tiles int64 and 3 n bytes), whose header then
 * says how large the render's own blocks must be. */
int view_project(
    int64_t n, const double *positions, const double *log_scales,
    const double *quats, const double *sh, const double *logits,
    const double *planes, int64_t k_stored, int64_t degree,
    const double *params, int64_t width, int64_t height, int64_t ts,
    int64_t sub, double *f, int64_t *iw)
{
    const double *w = params + P_ROT, *center = params + P_CENTER;
    const double fx = params[P_FX], fy = params[P_FY];
    const double cx = params[P_CX], cy = params[P_CY];
    const double znear = params[P_ZNEAR], tau = params[P_TAU];
    const int64_t tiles_x = ceil_div(width, sub), tiles_y = ceil_div(height, sub);
    const int64_t k_active = (degree + 1) * (degree + 1);
    const work_t work = work_of(iw, n, tiles_x * tiles_y);
#define FIELD(name) (f + (name) * n)
    double *means = FIELD(F_MEANS2D), *depths = FIELD(F_DEPTHS);
    double *mx = FIELD(F_MX), *my = FIELD(F_MY);
    double *ca = FIELD(F_CA), *cb = FIELD(F_CB), *cc = FIELD(F_CC);
    double *opac = FIELD(F_OPAC), *radii = FIELD(F_RADII);

    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        double s[3], off[3], t[3];
        if (!in_frustum(planes, positions + 3 * i, log_scales + 3 * i,
                        quats + 4 * i, s))
            continue;
        for (int k = 0; k < 3; k++)
            off[k] = positions[3 * i + k] - center[k];
        for (int k = 0; k < 3; k++)
            t[k] = off[0] * w[3 * k] + off[1] * w[3 * k + 1] +
                   off[2] * w[3 * k + 2];
        if (!(t[2] > znear))
            continue;

        /* Sigma = M M^T with M = R diag(exp(log_scales)). */
        double q[4], rot[9], mm[9], cov[9], tmp[9], cov_cam[9];
        const double q_norm = unit_and_norm(quats + 4 * i, 4, q);
        rotation_matrix(q, rot);
        for (int k = 0; k < 9; k++)
            mm[k] = rot[k] * s[k % 3];
        mat3(mm, 0, mm, 1, cov);
        /* cov_cam = W Sigma W^T, cov2d = J cov_cam J^T + low-pass. */
        mat3(w, 0, cov, 0, tmp);
        mat3(tmp, 0, w, 1, cov_cam);
        const jac_t j = perspective_jacobian(t, fx, fy);
        double b0[3], b1[3];
        for (int k = 0; k < 3; k++) {
            b0[k] = j.j00 * cov_cam[k] + j.j02 * cov_cam[6 + k];
            b1[k] = j.j11 * cov_cam[3 + k] + j.j12 * cov_cam[6 + k];
        }
        const double a = b0[0] * j.j00 + b0[2] * j.j02 + 0.3;
        const double b = b0[1] * j.j11 + b0[2] * j.j12;
        const double b_t = b1[0] * j.j00 + b1[2] * j.j02;
        const double c = b1[1] * j.j11 + b1[2] * j.j12 + 0.3;
        const double det = a * c - b * b;
        if (!(det > 0.0))
            continue;
        /* projection.splat_radii: ceil(3 sqrt(lambda_max)). */
        const double mid = 0.5 * (a + c);
        double disc = mid * mid - det;
        disc = sqrt(disc < 0.0 ? 0.0 : disc);
        const double lambda = mid + disc;
        const double radius = ceil(3.0 * sqrt(lambda < 0.0 ? 0.0 : lambda));
        if (!(radius > 0.0))
            continue;
        const double safe_z = fabs(t[2]) > 1e-12 ? t[2] : 1e-12;
        const double u = fx * t[0] / safe_z + cx, v = fy * t[1] / safe_z + cy;
        if (!(u + radius > 0.0 && u - radius < (double)width &&
              v + radius > 0.0 && v - radius < (double)height))
            continue;

        /* A survivor: everything else is computed for these rows only. */
        work.ids[m] = i;
        means[2 * m] = mx[m] = u;
        means[2 * m + 1] = my[m] = v;
        depths[m] = t[2];
        radii[m] = radius;
        memcpy(FIELD(F_TCAM) + 3 * m, t, sizeof t);
        memcpy(FIELD(F_OFFSETS) + 3 * m, off, sizeof off);
        memcpy(FIELD(F_COVCAM) + 9 * m, cov_cam, sizeof cov_cam);
        double *cov2d = FIELD(F_COV2D) + 4 * m, *conic = FIELD(F_CONICS) + 4 * m;
        cov2d[0] = a;
        cov2d[1] = b;
        cov2d[2] = b_t;
        cov2d[3] = c;
        conic[0] = ca[m] = c / det;
        conic[1] = conic[2] = cb[m] = -b / det;
        conic[3] = cc[m] = a / det;
        memcpy(FIELD(F_SCALES) + 3 * m, s, sizeof s);
        FIELD(F_QNORM)[m] = q_norm;
        memcpy(FIELD(F_UQUAT) + 4 * m, q, sizeof q);
        memcpy(FIELD(F_ROT) + 9 * m, rot, sizeof rot);
        double *dir = FIELD(F_DIRS) + 3 * m;
        FIELD(F_DNORM)[m] = unit_and_norm(off, 3, dir);

        /* sh.sh_to_color: basis . coefficients + 0.5, clamped at zero. */
        double basis[16];
        sh_basis(dir[0], dir[1], dir[2], degree, basis);
        const double *coeffs = sh + 3 * k_stored * i;
        for (int ch = 0; ch < 3; ch++) {
            double raw = 0.0;
            for (int64_t k = 0; k < k_active; k++)
                raw += basis[k] * coeffs[3 * k + ch];
            raw += 0.5;
            work.clamp[3 * m + ch] = raw < 0.0;
            FIELD(F_COLORS)[3 * m + ch] = raw < 0.0 ? 0.0 : raw;
        }
        /* model.sigmoid, the numerically stable form. */
        const double logit = logits[i];
        if (logit >= 0.0) {
            opac[m] = 1.0 / (1.0 + exp(-logit));
        } else {
            const double ex = exp(logit);
            opac[m] = ex / (1.0 + ex);
        }
        m++;
    }
#undef FIELD

    /* rasterizer._compute_tile_rects: the semantic tile span of the 3-sigma
     * radius, clipped to the image and to the thresholded footprint (the same
     * footprint() the compositing loops clip by), in compute tiles. */
    const int64_t last_x = ceil_div(width, ts) - 1, last_y = ceil_div(height, ts) - 1;
    int64_t binned = 0, area = 0;
    for (int64_t r = 0; r < m; r++) {
        const double x = mx[r], y = my[r], rad = radii[r];
        const int64_t sx0 = tile_of(x - rad, (double)ts, last_x);
        const int64_t sx1 = tile_of(x + rad, (double)ts, last_x);
        const int64_t sy0 = tile_of(y - rad, (double)ts, last_y);
        const int64_t sy1 = tile_of(y + rad, (double)ts, last_y);
        const entry_t e = footprint(
            r, mx, my, ca, cb, cc, opac, tau, sx0 * ts,
            min_i64((sx1 + 1) * ts, width) - 1, sy0 * ts,
            min_i64((sy1 + 1) * ts, height) - 1);
        /* opacity < tau passes the threshold nowhere (exp(.) <= 1). */
        if ((tau > 0.0 && opac[r] < tau) || e.x_lo > e.x_hi || e.y_lo > e.y_hi)
            continue;
        int64_t *rect = work.rects + 4 * r;
        rect[0] = e.x_lo / sub;
        rect[1] = e.x_hi / sub;
        rect[2] = e.y_lo / sub;
        rect[3] = e.y_hi / sub;
        work.rows[binned++] = r;
        area += (e.x_hi - e.x_lo + 1) * (e.y_hi - e.y_lo + 1);
    }
    const int64_t *sorted = sort_near_to_far(work.rows, work.tmp, binned, depths);
    if (sorted != work.rows)
        memcpy(work.rows, sorted, (size_t)binned * sizeof(int64_t));

    int64_t tiles = 0, entries = 0;
    memset(work.per_tile, 0, (size_t)(tiles_x * tiles_y) * sizeof(int64_t));
    for (int64_t k = 0; k < binned; k++) {
        const int64_t *rect = work.rects + 4 * work.rows[k];
        for (int64_t ty = rect[2]; ty <= rect[3]; ty++)
            for (int64_t tx = rect[0]; tx <= rect[1]; tx++)
                tiles += work.per_tile[ty * tiles_x + tx]++ == 0;
        entries += (rect[1] - rect[0] + 1) * (rect[3] - rect[2] + 1);
    }
    work.head[0] = m;
    work.head[1] = binned;
    work.head[2] = tiles;
    work.head[3] = entries;
    work.head[4] = area;
    return 0;
}

/* The second forward call, once the render's own blocks exist: ``kept``
 * (52 * m doubles), ``ikept`` (ids m | tile_ids T | offsets T + 1 | order E)
 * and ``clamp`` (3 * m bytes) receive the survivors' fields, the filling half
 * of build_tile_bins writes the CSR arrays, composite() runs over them and
 * the tile-major canvases are cropped into ``image`` (H, W, 3) and ``trans``
 * (H, W).  Unless they are NULL, the blend records go to ``rec_f`` (the final
 * T of the T non-empty tiles, then exp values and T_before of at most
 * ``area`` = head[4] cells), ``rec_p`` (their pixels, ``area``) and
 * ``rec_end`` (E + 1), for view_backward.  Returns 1 when the canvases cannot
 * be allocated, 3 when more cells pass than ``area``. */
int view_composite(
    int64_t n, const double *f, int64_t *iw, const double *params,
    int64_t width, int64_t height, int64_t sub, double *kept, int64_t *ikept,
    uint8_t *clamp, double *rec_f, int32_t *rec_p, int64_t *rec_end,
    double *image, double *trans)
{
    static const int starts[] = {
        F_MEANS2D, F_DEPTHS, F_TCAM, F_OFFSETS, F_COVCAM, F_COV2D, F_CONICS,
        F_COLORS, F_OPAC, F_RADII, F_SCALES, F_QNORM, F_UQUAT, F_ROT, F_DIRS,
        F_DNORM, F_RETAINED};
    const int64_t tiles_x = ceil_div(width, sub), tiles_y = ceil_div(height, sub);
    const int64_t num_tiles = tiles_x * tiles_y, pixels = sub * sub;
    const work_t work = work_of(iw, n, num_tiles);
    const int64_t m = work.head[0], binned = work.head[1];
    const int64_t tiles = work.head[2], entries = work.head[3];

    for (int k = 0; k + 1 < (int)(sizeof starts / sizeof *starts); k++)
        memcpy(kept + starts[k] * m, f + starts[k] * n,
               (size_t)((starts[k + 1] - starts[k]) * m) * sizeof(double));
    memcpy(ikept, work.ids, (size_t)m * sizeof(int64_t));
    memcpy(clamp, work.clamp, (size_t)(3 * m));

    /* Non-empty tiles ascending, their offsets, then the rows: walking the
     * binned rows near-to-far leaves every tile's list near-to-far. */
    int64_t *tile_ids = ikept + m, *offsets = tile_ids + tiles;
    int64_t *order = offsets + tiles + 1;
    int64_t found = 0, run = 0;
    for (int64_t t = 0; t < num_tiles; t++) {
        const int64_t count = work.per_tile[t];
        if (count == 0)
            continue;
        tile_ids[found] = t;
        offsets[found++] = run;
        work.per_tile[t] = run;  /* from here on: the tile's fill cursor */
        run += count;
    }
    offsets[found] = run;
    if (found != tiles || run != entries)
        return 2;
    for (int64_t k = 0; k < binned; k++) {
        const int64_t row = work.rows[k], *rect = work.rects + 4 * row;
        for (int64_t ty = rect[2]; ty <= rect[3]; ty++)
            for (int64_t tx = rect[0]; tx <= rect[1]; tx++)
                order[work.per_tile[ty * tiles_x + tx]++] = row;
    }

    const double *bg = params + P_BG;
    double *canvas_rgb = malloc((size_t)(num_tiles * pixels) * 4 * sizeof(double));
    if (canvas_rgb == NULL)
        return 1;
    double *canvas_t = canvas_rgb + 3 * num_tiles * pixels;
    for (int64_t p = 0; p < num_tiles * pixels; p++) {
        canvas_rgb[3 * p] = bg[0];
        canvas_rgb[3 * p + 1] = bg[1];
        canvas_rgb[3 * p + 2] = bg[2];
        canvas_t[p] = 1.0;
    }
    const records_t rec =
        records_of(rec_f, rec_p, rec_end, work.head[4], tiles * pixels);
    const int failed = composite(
        tiles, offsets, order, tile_ids, tiles_x, sub, width, height,
        f + F_MX * n, f + F_MY * n, f + F_CA * n, f + F_CB * n, f + F_CC * n,
        kept + F_OPAC * m, kept + F_COLORS * m, bg, params[P_TAU],
        params[P_TMIN], params[P_MAX_ALPHA], canvas_rgb, canvas_t,
        rec_f != NULL ? &rec : NULL);
    for (int64_t y = 0; y < height; y++)
        for (int64_t x = 0; x < width; x++) {
            const int64_t p = tile_major(x, y, sub, tiles_x);
            memcpy(image + 3 * (y * width + x), canvas_rgb + 3 * p,
                   3 * sizeof(double));
            trans[y * width + x] = canvas_t[p];
        }
    free(canvas_rgb);
    return failed;
}

/* rasterizer_grad._chain_to_parameters for survivor ``r``: the screen-space
 * gradients (colour 3, opacity, mean 2, conic 2x2) down to the parameters of
 * input row ids[r], written to that row of the five full-size arrays. */
static void view_chain(
    int64_t r, int64_t m, const double *kept, const int64_t *ids,
    const uint8_t *clamp, const double *sh, int64_t k_stored, int64_t degree,
    const double *params, const double *d_colors, const double *d_opac,
    const double *d_means, const double *d_conics, double *g_positions,
    double *g_log_scales, double *g_quats, double *g_sh, double *g_logits)
{
#define FIELD(name, width) (kept + (name) * m + (width) * r)
    const double *w = params + P_ROT;
    const double fx = params[P_FX], fy = params[P_FY];
    const double *t = FIELD(F_TCAM, 3), *cov_cam = FIELD(F_COVCAM, 9);
    const double *conic = FIELD(F_CONICS, 4), *d_conic = d_conics + 4 * r;
    const int64_t id = ids[r];

    /* covariance.invert_cov2d_backward: -(conic d_conic conic), then its
     * symmetric part g. */
    double x[4], d_cov2d[4];
    for (int i = 0; i < 2; i++)
        for (int j = 0; j < 2; j++)
            x[2 * i + j] = conic[2 * i] * d_conic[j] + conic[2 * i + 1] * d_conic[2 + j];
    for (int i = 0; i < 2; i++)
        for (int j = 0; j < 2; j++)
            d_cov2d[2 * i + j] = -(x[2 * i] * conic[j] + x[2 * i + 1] * conic[2 + j]);
    const double g00 = d_cov2d[0], g11 = d_cov2d[3];
    const double g01 = 0.5 * (d_cov2d[1] + d_cov2d[2]);

    /* covariance.project_covariance_backward.  With J = [[j00, 0, j02],
     * [0, j11, j12]]: gj = g J, d_cov_cam = J^T gj, d_cov_world =
     * W^T d_cov_cam W, d_jac = 2 gj cov_cam. */
    const jac_t j = perspective_jacobian(t, fx, fy);
    const double gj[6] = {
        g00 * j.j00, g01 * j.j11, g00 * j.j02 + g01 * j.j12,
        g01 * j.j00, g11 * j.j11, g01 * j.j02 + g11 * j.j12};
    double d_cov_cam[9], tmp[9], d_cov[9], d_jac[6];
    for (int k = 0; k < 3; k++) {
        d_cov_cam[k] = j.j00 * gj[k];
        d_cov_cam[3 + k] = j.j11 * gj[3 + k];
        d_cov_cam[6 + k] = j.j02 * gj[k] + j.j12 * gj[3 + k];
    }
    mat3(w, 1, d_cov_cam, 0, tmp);
    mat3(tmp, 0, w, 0, d_cov);
    for (int i = 0; i < 2; i++)
        for (int k = 0; k < 3; k++)
            d_jac[3 * i + k] = 2.0 * (gj[3 * i] * cov_cam[k] +
                                      gj[3 * i + 1] * cov_cam[3 + k] +
                                      gj[3 * i + 2] * cov_cam[6 + k]);
    const double inv_z3 = j.inv_z2 * j.inv_z;
    double d_t[3];
    d_t[0] = d_jac[2] * (-fx * j.inv_z2);
    d_t[1] = d_jac[5] * (-fy * j.inv_z2);
    d_t[2] = d_jac[0] * (-fx * j.inv_z2) + d_jac[4] * (-fy * j.inv_z2) +
             d_jac[2] * (2 * fx * t[0] * inv_z3) +
             d_jac[5] * (2 * fy * t[1] * inv_z3);

    /* GaussianShape.covariance_backward: Sigma = M M^T, M = R diag(s). */
    const double *s = FIELD(F_SCALES, 3), *rot = FIELD(F_ROT, 9);
    const double *q = FIELD(F_UQUAT, 4);
    double mm[9], sym[9], d_m[9], d_rot[9], d_scale[3] = {0.0, 0.0, 0.0};
    for (int k = 0; k < 9; k++) {
        mm[k] = rot[k] * s[k % 3];
        sym[k] = d_cov[k] + d_cov[3 * (k % 3) + k / 3];
    }
    mat3(sym, 0, mm, 0, d_m);
    for (int k = 0; k < 9; k++) {
        d_rot[k] = d_m[k] * s[k % 3];
        d_scale[k % 3] += rot[k] * d_m[k];
    }
    for (int k = 0; k < 3; k++)
        g_log_scales[3 * id + k] = d_scale[k] * s[k];
    /* quaternion.backprop_rotation in closed form (the contraction of d_rot
     * with quaternion.rotation_matrix_jacobian), then the normalisation. */
    const double qw = q[0], qx = q[1], qy = q[2], qz = q[3];
    const double *d = d_rot;
    const double d_unit[4] = {
        2 * (qz * (d[3] - d[1]) + qy * (d[2] - d[6]) + qx * (d[7] - d[5])),
        2 * (qy * (d[1] + d[3]) + qz * (d[2] + d[6]) + qw * (d[7] - d[5]) -
             2 * qx * (d[4] + d[8])),
        2 * (qx * (d[1] + d[3]) + qw * (d[2] - d[6]) + qz * (d[5] + d[7]) -
             2 * qy * (d[0] + d[8])),
        2 * (qw * (d[3] - d[1]) + qx * (d[2] + d[6]) + qy * (d[5] + d[7]) -
             2 * qz * (d[0] + d[4]))};
    backprop_unit(d_unit, q, *FIELD(F_QNORM, 1), 4, g_quats + 4 * id);

    /* projection.project_means_backward, plus the Jacobian's own dependence
     * on the camera point, rotated back to the world. */
    const double gu = d_means[2 * r], gv = d_means[2 * r + 1];
    d_t[0] += fx * j.inv_z * gu;
    d_t[1] += fy * j.inv_z * gv;
    d_t[2] += -fx * t[0] * j.inv_z2 * gu - fy * t[1] * j.inv_z2 * gv;
    double d_pos[3];
    for (int k = 0; k < 3; k++)
        d_pos[k] = d_t[0] * w[k] + d_t[1] * w[3 + k] + d_t[2] * w[6 + k];

    /* sh.sh_backward: coefficients of the active degree, and through the
     * basis Jacobian and the normalised view direction the position again. */
    const double *dir = FIELD(F_DIRS, 3), *coeffs = sh + 3 * k_stored * id;
    const int64_t k_active = (degree + 1) * (degree + 1);
    double basis[16], jac[16][3], gated[3], d_dir[3] = {0.0, 0.0, 0.0};
    sh_basis(dir[0], dir[1], dir[2], degree, basis);
    sh_basis_jacobian(dir[0], dir[1], dir[2], degree, jac);
    for (int ch = 0; ch < 3; ch++)
        gated[ch] = clamp[3 * r + ch] ? 0.0 : d_colors[3 * r + ch];
    for (int64_t k = 0; k < k_active; k++) {
        double through = 0.0;
        for (int ch = 0; ch < 3; ch++) {
            g_sh[3 * (k_stored * id + k) + ch] = basis[k] * gated[ch];
            through += coeffs[3 * k + ch] * gated[ch];
        }
        for (int c = 0; c < 3; c++)
            d_dir[c] += through * jac[k][c];
    }
    double d_offset[3];
    backprop_unit(d_dir, dir, *FIELD(F_DNORM, 1), 3, d_offset);
    for (int k = 0; k < 3; k++)
        g_positions[3 * id + k] = d_pos[k] + d_offset[k];

    const double o = *FIELD(F_OPAC, 1);
    g_logits[id] = d_opac[r] * o * (1.0 - o);
#undef FIELD
}

/* The whole backward pass of a view_composite render: ``d_image`` (H, W, 3)
 * goes tile-major, composite_backward turns it into screen-space gradients
 * (from the blend records view_composite kept, when ``rec_f`` is not NULL,
 * ``cap`` being the cells they have room for) and view_chain scatters those
 * to rows ids of the five zero-filled ``g_*`` arrays (n rows each).  Returns
 * 1 when scratch cannot be allocated, 2 when the blocks are not ones
 * view_composite could have written. */
int view_backward(
    int64_t m, int64_t n, int64_t tiles, int64_t entries, int64_t cap,
    const double *kept, const int64_t *ikept, const uint8_t *clamp,
    const double *rec_f, const int32_t *rec_p, const int64_t *rec_end,
    const double *sh, int64_t k_stored, int64_t degree, const double *params,
    int64_t width, int64_t height, int64_t sub, const double *d_image,
    double *g_positions, double *g_log_scales, double *g_quats, double *g_sh,
    double *g_logits)
{
    const int64_t tiles_x = ceil_div(width, sub), tiles_y = ceil_div(height, sub);
    const int64_t num_tiles = tiles_x * tiles_y, pixels = sub * sub;
    const int64_t *ids = ikept, *tile_ids = ikept + m;
    const int64_t *offsets = tile_ids + tiles, *order = offsets + tiles + 1;
    for (int64_t r = 0; r < m; r++)
        if (ids[r] < 0 || ids[r] >= n)
            return 2;
    for (int64_t i = 0; i < tiles; i++)
        if (tile_ids[i] < 0 || tile_ids[i] >= num_tiles ||
            offsets[i] > offsets[i + 1])
            return 2;
    if (tiles > 0 && (offsets[0] != 0 || offsets[tiles] != entries))
        return 2;
    for (int64_t k = 0; k < entries; k++)
        if (order[k] < 0 || order[k] >= m)
            return 2;
    /* Record ends ascend from 0 and stay within ``cap``; pixels in a tile. */
    for (int64_t k = 0; rec_f != NULL && k <= entries; k++)
        if ((k == 0 ? rec_end[0] != 0 : rec_end[k] < rec_end[k - 1]) ||
            rec_end[k] > cap)
            return 2;
    for (int64_t r = 0; rec_f != NULL && r < rec_end[entries]; r++)
        if (rec_p[r] < 0 || rec_p[r] >= pixels)
            return 2;
    /* Read only here: the struct's pointers are writable for view_composite. */
    const records_t rec = records_of(
        (double *)rec_f, (int32_t *)rec_p, (int64_t *)rec_end, cap, tiles * pixels);

    /* One zeroed block: the raster kernels' separate-array operands (5 m),
     * the screen-space gradients (10 m), the tile-major upstream gradient. */
    double *scratch =
        calloc((size_t)(15 * m + 3 * num_tiles * pixels) + 1, sizeof(double));
    if (scratch == NULL)
        return 1;
    double *mx = scratch, *my = mx + m, *ca = my + m, *cb = ca + m, *cc = cb + m;
    double *d_colors = cc + m, *d_opac = d_colors + 3 * m;
    double *d_means = d_opac + m, *d_conics = d_means + 2 * m;
    double *g_tiles = d_conics + 4 * m;
    for (int64_t r = 0; r < m; r++) {
        mx[r] = kept[F_MEANS2D * m + 2 * r];
        my[r] = kept[F_MEANS2D * m + 2 * r + 1];
        ca[r] = kept[F_CONICS * m + 4 * r];
        cb[r] = kept[F_CONICS * m + 4 * r + 1];
        cc[r] = kept[F_CONICS * m + 4 * r + 3];
    }
    for (int64_t y = 0; y < height; y++)
        for (int64_t x = 0; x < width; x++) {
            const int64_t p = tile_major(x, y, sub, tiles_x);
            memcpy(g_tiles + 3 * p, d_image + 3 * (y * width + x),
                   3 * sizeof(double));
        }
    const int failed = composite_backward(
        tiles, offsets, order, tile_ids, tiles_x, sub, width, height, mx, my,
        ca, cb, cc, kept + F_OPAC * m, kept + F_COLORS * m, g_tiles,
        params + P_BG, params[P_TAU], params[P_TMIN], params[P_MAX_ALPHA],
        d_colors, d_opac, d_means, d_conics, rec_f != NULL ? &rec : NULL);
    if (!failed)
        for (int64_t r = 0; r < m; r++)
            view_chain(r, m, kept, ids, clamp, sh, k_stored, degree, params,
                       d_colors, d_opac, d_means, d_conics, g_positions,
                       g_log_scales, g_quats, g_sh, g_logits);
    free(scratch);
    return failed;
}
