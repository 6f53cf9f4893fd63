//! The job driver: map phase, sort-merge shuffle, reduce phase — each
//! phase's tasks on one thread apiece, the first of them the caller's.

use crate::counters::{CounterSnapshot, JobCounters};
use crate::job::{Mapper, Reducer};
use crate::partition::Partitioner;
use std::time::{Duration, Instant};

/// Job configuration.
#[derive(Debug, Clone, Copy)]
pub struct JobConfig {
    /// Number of concurrent map tasks (one thread each, the first being
    /// the caller's). Models the worker slots of the paper's cluster.
    pub map_tasks: usize,
    /// Number of reduce partitions (= output partition files).
    pub reduce_tasks: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self { map_tasks: 3, reduce_tasks: 3 }
    }
}

/// Runs one phase's tasks and returns their results in task order: the
/// first task on the calling thread, every further task on a scoped
/// thread of its own. A one-task phase therefore spawns nothing — the
/// in-process engine builds on its caller's thread — and an `n`-task
/// phase occupies `n` threads, the caller included. A task is a pure
/// function of its input, so there is nothing to retry: a task that
/// panics ends the job with its own panic payload, whichever thread ran
/// it.
fn run_tasks<T: Send>(tasks: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else { return Vec::new() };
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks.map(|task| scope.spawn(task)).collect();
        let mut results = vec![first()];
        for handle in handles {
            results
                .push(handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        results
    })
}

/// Output of a job: one key-sorted `(key, output)` vector per reduce
/// partition, plus counters and phase timings.
#[derive(Debug)]
pub struct JobOutput<K, O> {
    /// `partitions[i]` holds reducer `i`'s output, sorted by key.
    pub partitions: Vec<Vec<(K, O)>>,
    /// Counter snapshot.
    pub counters: CounterSnapshot,
    /// Wall time of the map + shuffle phase.
    pub map_time: Duration,
    /// Wall time of the reduce phase.
    pub reduce_time: Duration,
}

/// Runs a MapReduce job over `inputs`.
///
/// Within each partition the reducer sees key groups in ascending key
/// order, and the partition output preserves that order — the sortedness
/// guarantee Section IV-B2 relies on for the contiguous on-disk layout of
/// `⟨geohash, term⟩` keys.
pub fn run_job<M, R, P>(
    config: JobConfig,
    inputs: &[M::Input],
    mapper: &M,
    reducer: &R,
    partitioner: &P,
) -> JobOutput<M::Key, R::Output>
where
    M: Mapper,
    R: Reducer<Key = M::Key, Value = M::Value>,
    P: Partitioner<M::Key>,
{
    assert!(config.map_tasks > 0 && config.reduce_tasks > 0, "tasks must be positive");
    let counters = &JobCounters::default();
    let nred = config.reduce_tasks;

    // ---- Map phase: each task maps a contiguous input split and
    // pre-partitions its emissions.
    let map_start = Instant::now();
    let chunk = inputs.len().div_ceil(config.map_tasks).max(1);
    let map_tasks: Vec<_> = inputs
        .chunks(chunk)
        .map(|split| {
            move || {
                let mut local: Vec<Vec<(M::Key, M::Value)>> =
                    (0..nred).map(|_| Vec::new()).collect();
                let mut inputs = 0u64;
                let mut outputs = 0u64;
                for record in split {
                    inputs += 1;
                    mapper.map(record, &mut |k, v| {
                        let p = partitioner.partition(&k, nred);
                        debug_assert!(p < nred, "partitioner returned {p} for {nred} partitions");
                        local[p].push((k, v));
                        outputs += 1;
                    });
                }
                counters.add_map_input(inputs);
                counters.add_map_output(outputs);
                local
            }
        })
        .collect();
    let mut buckets: Vec<Vec<(M::Key, M::Value)>> = (0..nred).map(|_| Vec::new()).collect();
    for local in run_tasks(map_tasks) {
        for (bucket, mut part) in buckets.iter_mut().zip(local) {
            if bucket.is_empty() {
                // The first task's output becomes the bucket: no second
                // copy of a one-task job's whole map output.
                *bucket = part;
            } else {
                bucket.append(&mut part);
            }
        }
    }
    let map_time = map_start.elapsed();

    // ---- Reduce phase: sort each partition by key, group, reduce.
    let reduce_start = Instant::now();
    let reduce_tasks: Vec<_> = buckets
        .into_iter()
        .map(|mut bucket| {
            move || {
                // The shuffle's sort, in place: the bucket is a job's
                // largest allocation, so give back the slack its growth
                // left and take no scratch copy of it. Unstable is enough —
                // a reducer sees each group's values in arbitrary order.
                bucket.shrink_to_fit();
                bucket.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                // Each group's values move out of the bucket into the
                // reducer, in a vector sized to the group.
                let mut out: Vec<(M::Key, R::Output)> = Vec::new();
                let mut groups = 0u64;
                let mut emitted = 0u64;
                let mut pairs = bucket.into_iter();
                while let Some((key, first)) = pairs.next() {
                    let more = pairs.as_slice().iter().take_while(|(k, _)| *k == key).count();
                    let mut values = Vec::with_capacity(1 + more);
                    values.push(first);
                    values.extend(pairs.by_ref().take(more).map(|(_, v)| v));
                    groups += 1;
                    reducer.reduce(&key, values, &mut |o| {
                        out.push((key.clone(), o));
                        emitted += 1;
                    });
                }
                counters.add_reduce_group(groups);
                counters.add_reduce_output(emitted);
                out
            }
        })
        .collect();
    let partitions = run_tasks(reduce_tasks);
    let reduce_time = reduce_start.elapsed();

    JobOutput { partitions, counters: counters.snapshot(), map_time, reduce_time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{HashPartitioner, RangePartitioner};

    /// Classic word count: mapper splits lines, reducer sums counts.
    struct WcMap;
    impl Mapper for WcMap {
        type Input = String;
        type Key = String;
        type Value = u64;
        fn map(&self, input: &String, emit: &mut dyn FnMut(String, u64)) {
            for w in input.split_whitespace() {
                emit(w.to_string(), 1);
            }
        }
    }

    struct WcReduce;
    impl Reducer for WcReduce {
        type Key = String;
        type Value = u64;
        type Output = u64;
        fn reduce(&self, _key: &String, values: Vec<u64>, emit: &mut dyn FnMut(u64)) {
            emit(values.iter().sum());
        }
    }

    fn lines(texts: &[&str]) -> Vec<String> {
        texts.iter().map(|s| s.to_string()).collect()
    }

    fn collect_all(out: JobOutput<String, u64>) -> std::collections::BTreeMap<String, u64> {
        out.partitions.into_iter().flatten().collect()
    }

    #[test]
    fn word_count_end_to_end() {
        let inputs = lines(&["hotel toronto hotel", "toronto cafe", "hotel"]);
        let out = run_job(JobConfig::default(), &inputs, &WcMap, &WcReduce, &HashPartitioner);
        let counts = collect_all(out);
        assert_eq!(counts.get("hotel"), Some(&3));
        assert_eq!(counts.get("toronto"), Some(&2));
        assert_eq!(counts.get("cafe"), Some(&1));
    }

    #[test]
    fn counters_add_up() {
        let inputs = lines(&["a b c", "a a"]);
        let out = run_job(JobConfig::default(), &inputs, &WcMap, &WcReduce, &HashPartitioner);
        assert_eq!(out.counters.map_input_records, 2);
        assert_eq!(out.counters.map_output_records, 5);
        assert_eq!(out.counters.shuffled_records, 5);
        assert_eq!(out.counters.reduce_groups, 3); // a, b, c
        assert_eq!(out.counters.reduce_output_records, 3);
    }

    #[test]
    fn partitions_are_key_sorted() {
        let inputs: Vec<String> =
            (0..200).map(|i| format!("w{:03} w{:03}", i % 50, (i * 7) % 50)).collect();
        let out = run_job(
            JobConfig { map_tasks: 4, reduce_tasks: 5 },
            &inputs,
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        );
        assert_eq!(out.partitions.len(), 5);
        for part in &out.partitions {
            assert!(part.windows(2).all(|w| w[0].0 < w[1].0), "partition not sorted");
        }
    }

    #[test]
    fn result_is_independent_of_task_counts() {
        let inputs: Vec<String> =
            (0..100).map(|i| format!("k{} k{} k{}", i % 11, i % 7, i % 5)).collect();
        let base = collect_all(run_job(
            JobConfig { map_tasks: 1, reduce_tasks: 1 },
            &inputs,
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        ));
        for (m, r) in [(2, 3), (4, 1), (3, 8), (7, 2)] {
            let got = collect_all(run_job(
                JobConfig { map_tasks: m, reduce_tasks: r },
                &inputs,
                &WcMap,
                &WcReduce,
                &HashPartitioner,
            ));
            assert_eq!(got, base, "map_tasks={m} reduce_tasks={r}");
        }
    }

    /// Word count that also records which thread ran each map call and
    /// each reduce call.
    #[derive(Default)]
    struct WhereAmI {
        map_threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
        reduce_threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }
    impl Mapper for WhereAmI {
        type Input = String;
        type Key = String;
        type Value = u64;
        fn map(&self, input: &String, emit: &mut dyn FnMut(String, u64)) {
            self.map_threads.lock().unwrap().push(std::thread::current().id());
            WcMap.map(input, emit);
        }
    }
    impl Reducer for WhereAmI {
        type Key = String;
        type Value = u64;
        type Output = u64;
        fn reduce(&self, key: &String, values: Vec<u64>, emit: &mut dyn FnMut(u64)) {
            self.reduce_threads.lock().unwrap().push(std::thread::current().id());
            WcReduce.reduce(key, values, emit);
        }
    }

    #[test]
    fn one_task_phase_spawns_no_thread() {
        let inputs: Vec<String> = (0..30).map(|i| format!("k{} k{}", i % 7, i % 5)).collect();
        let job = WhereAmI::default();
        let out = run_job(
            JobConfig { map_tasks: 1, reduce_tasks: 1 },
            &inputs,
            &job,
            &job,
            &HashPartitioner,
        );
        assert_eq!(out.counters.map_input_records, 30);
        let me = std::thread::current().id();
        let maps = job.map_threads.lock().unwrap();
        let reduces = job.reduce_threads.lock().unwrap();
        assert_eq!(maps.len(), 30);
        assert!(!reduces.is_empty());
        assert!(maps.iter().chain(reduces.iter()).all(|&t| t == me), "a task left the caller");
    }

    #[test]
    fn first_task_runs_on_the_caller() {
        // 30 inputs over 3 map tasks: the first split's 10 records map on
        // the caller, the other 20 on two threads that are not the caller.
        let inputs: Vec<String> = (0..30).map(|i| format!("k{} k{}", i % 7, i % 5)).collect();
        let job = WhereAmI::default();
        run_job(
            JobConfig { map_tasks: 3, reduce_tasks: 3 },
            &inputs,
            &job,
            &job,
            &RangePartitioner::new(vec!["k2".to_string(), "k4".to_string()]),
        );
        let me = std::thread::current().id();
        let maps = job.map_threads.lock().unwrap();
        assert_eq!(maps.iter().filter(|&&t| t == me).count(), 10);
        let others: std::collections::HashSet<_> = maps.iter().filter(|&&t| t != me).collect();
        assert_eq!(others.len(), 2, "two spawned map tasks");
        // Reduce partition 0 holds k0 and k1; its two groups reduce here.
        let reduces = job.reduce_threads.lock().unwrap();
        assert_eq!(reduces.len(), 7);
        assert_eq!(reduces.iter().filter(|&&t| t == me).count(), 2);
    }

    #[test]
    fn range_partitioner_keeps_ranges_together() {
        let inputs = lines(&["apple grape mango zebra", "banana pear zulu"]);
        let p = RangePartitioner::new(vec!["h".to_string(), "q".to_string()]);
        let out =
            run_job(JobConfig { map_tasks: 2, reduce_tasks: 3 }, &inputs, &WcMap, &WcReduce, &p);
        // Partition 0: keys < "h"; partition 1: "h".."q"; partition 2: >= "q".
        let part_keys: Vec<Vec<&String>> =
            out.partitions.iter().map(|p| p.iter().map(|(k, _)| k).collect()).collect();
        assert!(part_keys[0].iter().all(|k| k.as_str() < "h"), "{part_keys:?}");
        assert!(part_keys[1].iter().all(|k| ("h".."q").contains(&k.as_str())));
        assert!(part_keys[2].iter().all(|k| k.as_str() >= "q"));
        // Global order = concatenation of partitions (total order property).
        let flat: Vec<&String> = part_keys.into_iter().flatten().collect();
        assert!(flat.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_input_yields_empty_partitions() {
        let out = run_job(
            JobConfig::default(),
            &Vec::<String>::new(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        );
        assert_eq!(out.partitions.len(), 3);
        assert!(out.partitions.iter().all(Vec::is_empty));
        assert_eq!(out.counters.map_input_records, 0);
    }

    #[test]
    #[should_panic(expected = "tasks must be positive")]
    fn zero_tasks_rejected() {
        let _ = run_job(
            JobConfig { map_tasks: 0, reduce_tasks: 1 },
            &Vec::<String>::new(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        );
    }

    /// Word count whose mapper panics on one record.
    struct PanicOn(&'static str);
    impl Mapper for PanicOn {
        type Input = String;
        type Key = String;
        type Value = u64;
        fn map(&self, input: &String, emit: &mut dyn FnMut(String, u64)) {
            assert_ne!(input, self.0, "mapper rejects its input");
            WcMap.map(input, emit);
        }
    }

    #[test]
    #[should_panic(expected = "mapper rejects its input")]
    fn a_panicking_task_ends_the_job_with_its_payload() {
        // The bad record is in the second split, so the panic crosses a
        // spawned task's join.
        let inputs = lines(&["a b", "c d", "bad", "e f"]);
        let _ = run_job(
            JobConfig { map_tasks: 2, reduce_tasks: 2 },
            &inputs,
            &PanicOn("bad"),
            &WcReduce,
            &HashPartitioner,
        );
    }

    /// A reducer that emits multiple outputs per key, to cover that path.
    struct ExplodeReduce;
    impl Reducer for ExplodeReduce {
        type Key = String;
        type Value = u64;
        type Output = u64;
        fn reduce(&self, _key: &String, values: Vec<u64>, emit: &mut dyn FnMut(u64)) {
            for v in values {
                emit(v * 10);
            }
        }
    }

    #[test]
    fn reducer_can_emit_many() {
        let inputs = lines(&["x x x"]);
        let out = run_job(JobConfig::default(), &inputs, &WcMap, &ExplodeReduce, &HashPartitioner);
        let all: Vec<(String, u64)> = out.partitions.into_iter().flatten().collect();
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|(k, v)| k == "x" && *v == 10));
    }
}
