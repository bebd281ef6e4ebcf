/**
 * @file
 * Process-wide registry for the per-thread, immortal object pools.
 *
 * The sharded kernel gives every thread its own slab pools so
 * acquire/release stay lock-free; slots migrate freely between
 * threads' free lists, which means a pool's slabs must outlive the
 * thread that allocated them. Pools are therefore never freed, and
 * this registry is what keeps them (a) reachable past static
 * destruction -- so LeakSanitizer sees retained state, not leaks --
 * and (b) enumerable, so aggregate statistics can be computed while
 * the kernel is quiescent.
 *
 * Pools are recycled per thread, not leaked per thread: claim() hands
 * a thread a pool retired by a thread that has exited (splicing the
 * slots other threads released to it meanwhile) before it creates a
 * new one, and the pool goes back on its type's free list when the
 * claiming thread exits. Every sharded System starts fresh worker
 * threads, so without this each one would strand a new set of pools;
 * with it, slab memory is bounded by the peak number of concurrent
 * threads, not by the number of Systems a process runs.
 *
 * Registration, retirement and adoption are mutex-guarded (the mutex
 * publishes a retired pool's single-owner state to its adopter);
 * forEach takes the same mutex and is only meaningful while no worker
 * threads are running.
 */

#ifndef DSP_SIM_POOL_REGISTRY_HH
#define DSP_SIM_POOL_REGISTRY_HH

#include <mutex>
#include <vector>

namespace dsp {

template <typename PoolT>
class PoolRegistry
{
  public:
    /**
     * A pool of type Concrete (a PoolT) for the calling thread, which
     * owns it until it exits: a retired one if any, else a new,
     * registered one. Concrete must be default-constructible by this
     * registry. An adopted pool's arenas splice the slots other
     * threads released to them before they ever grow
     * (sim/slab_pool.hh), so adoption needs no further step.
     */
    template <typename Concrete>
    static Concrete *
    claim()
    {
        Concrete *pool = nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex());
            std::vector<Concrete *> &free = retired<Concrete>();
            if (free.empty()) {
                pool = new Concrete;
                list().push_back(pool);
            } else {
                pool = free.back();
                free.pop_back();
            }
        }
        // Touched only here, off the hot path: its destructor runs at
        // thread exit and hands the pool back.
        static thread_local Retirer<Concrete> retirer;
        retirer.pool = pool;
        return pool;
    }

    /** Visit every registered pool (quiescent state only). */
    template <typename Fn>
    static void
    forEach(Fn fn)
    {
        std::lock_guard<std::mutex> lock(mutex());
        for (PoolT *pool : list())
            fn(*pool);
    }

  private:
    /** Returns this thread's Concrete pool to the free list when the
     *  thread exits. The thread must not use the pool afterwards. */
    template <typename Concrete>
    struct Retirer {
        Concrete *pool = nullptr;

        ~Retirer()
        {
            std::lock_guard<std::mutex> lock(mutex());
            retired<Concrete>().push_back(pool);
        }
    };

    static std::vector<PoolT *> &
    list()
    {
        // Heap-allocated and never destroyed: see the file comment.
        static std::vector<PoolT *> *pools = new std::vector<PoolT *>;
        return *pools;
    }

    /** Pools of type Concrete whose threads have exited (guarded by
     *  mutex()). */
    template <typename Concrete>
    static std::vector<Concrete *> &
    retired()
    {
        // Never destroyed: threads may exit after static destruction.
        static std::vector<Concrete *> *pools =
            new std::vector<Concrete *>;
        return *pools;
    }

    static std::mutex &
    mutex()
    {
        static std::mutex m;
        return m;
    }
};

} // namespace dsp

#endif // DSP_SIM_POOL_REGISTRY_HH
