/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * The benchmark records one span around each of its own calls into a
 * layer's public entry point (name, start, end, parent span, op id),
 * keeps them in memory, and writes them out when the run ends. Spans
 * are recorded on the calling thread only: traced runs use a pool of
 * one thread, and the TPC trace observer runs on the dispatcher's
 * serial path, on the thread that launched the kernel.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Monotonic host clock in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span. `name` points at a string literal. */
struct SpanRec
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1; ///< Index of the enclosing span, or -1.
    std::int32_t op = -1;     ///< Op index within the op list.
    std::int32_t pass = -1;   ///< Pass over the op list.
};

/** The process-wide span log; disabled (records nothing) by default. */
class SpanLog
{
  public:
    static SpanLog &
    instance()
    {
        static SpanLog log;
        return log;
    }

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Tag spans opened from now on with this op and pass. */
    void
    setOp(int op, int pass)
    {
        op_ = op;
        pass_ = pass;
    }

    int
    begin(const char *name)
    {
        SpanRec r;
        r.name = name;
        r.parent = stack_.empty() ? -1 : stack_.back();
        r.op = op_;
        r.pass = pass_;
        r.startNs = nowNs();
        spans_.push_back(r);
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    end(int index)
    {
        spans_[index].endNs = nowNs();
        stack_.pop_back();
    }

    const std::vector<SpanRec> &spans() const { return spans_; }

  private:
    bool enabled_ = false;
    int op_ = -1;
    int pass_ = -1;
    std::vector<SpanRec> spans_;
    std::vector<int> stack_;
};

/** RAII span; free when the log is disabled. */
class Span
{
  public:
    explicit Span(const char *name)
        : index_(SpanLog::instance().enabled()
                     ? SpanLog::instance().begin(name)
                     : -1)
    {
    }
    ~Span()
    {
        if (index_ >= 0)
            SpanLog::instance().end(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
