//! The obs writer and the obs decoder agree: every kind of event the
//! `frlfi-obs` recorder writes decodes under the strict decoder that
//! `campaign profile --check`, `trace` and `top` share, with the
//! fields the instrumentation put in.
//!
//! This is its own test binary because the recorder is process-global:
//! no other test may install a sink while this one records.

use frlfi_campaign::fmt::json;
use frlfi_campaign::profile::{decode, Event};

#[test]
fn every_event_kind_the_recorder_writes_decodes_strictly() {
    let path = std::env::temp_dir().join(format!("frlfi-obs-schema-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    frlfi_obs::install(&path, "schema").expect("install recorder");
    {
        let _trial = frlfi_obs::span_trial("trial", 3);
        {
            let _train = frlfi_obs::span("train");
            let _io = frlfi_obs::timed("io");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        frlfi_obs::count("schema.count", 2);
        frlfi_obs::count("schema.count", 3);
        frlfi_obs::hist("schema.hist", 5);
        frlfi_obs::hist("schema.hist", 1000);
        frlfi_obs::warn!("schema check {}", 7);
    }
    frlfi_obs::uninstall();

    let text = std::fs::read_to_string(&path).expect("read stream");
    std::fs::remove_file(&path).ok();
    let events: Vec<Event> = text
        .lines()
        .map(|line| {
            let v = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            decode(&v).unwrap_or_else(|e| panic!("strict decode rejects {line}: {e}"))
        })
        .collect();

    let Some(Event::Meta { worker, pid, mono_us, .. }) = events.first() else {
        panic!("a stream starts with its meta event: {events:?}")
    };
    assert_eq!((worker.as_str(), *pid), ("schema", u64::from(std::process::id())));
    assert!(mono_us.is_some(), "v2 meta carries the monotonic anchor");

    let span = |wanted: &str| {
        events
            .iter()
            .find_map(|e| match e {
                Event::Span { name, id, parent, trial, .. } if name == wanted => {
                    Some((id.expect("v2 span id"), *parent, *trial))
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("no `{wanted}` span: {events:?}"))
    };
    let (trial_id, trial_parent, trial) = span("trial");
    let (train_id, train_parent, train_trial) = span("train");
    assert_eq!((trial_parent, trial), (None, Some(3)), "outermost span, tagged with its trial");
    assert_eq!((train_parent, train_trial), (Some(trial_id), None), "train nests in trial");

    let timer = events.iter().find_map(|e| match e {
        Event::Timer { name, n, total_us, parent, .. } if name == "io" => {
            Some((*n, *total_us, *parent))
        }
        _ => None,
    });
    let (n, total_us, parent) = timer.expect("the timed block flushes a timer event");
    assert_eq!((n, parent), (1, Some(train_id)), "timer attributed to the enclosing span");
    assert!(total_us >= 2000, "the timed block slept 2 ms: {total_us} µs");

    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Count { name, n: 5, .. } if name == "schema.count")),
        "counter deltas aggregate before the flush: {events:?}"
    );
    let hist = events.iter().find_map(|e| match e {
        Event::Hist { name, buckets, max, .. } if name == "schema.hist" => Some((buckets, *max)),
        _ => None,
    });
    let (buckets, max) = hist.expect("histogram event");
    assert_eq!((buckets.iter().sum::<u64>(), max), (2, Some(1000)));
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::Log { level, msg, .. } if level == "warn" && msg == "schema check 7"
        )),
        "the warning is recorded as a log event: {events:?}"
    );
}
